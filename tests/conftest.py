import numpy as np
import pytest


def _split_gate_blocks(arrays: dict, input_sizes: dict) -> dict:
    """arrays with each LSTM W named in input_sizes (key -> the LSTM's input
    size X) replaced by its eight gate blocks, keyed "<key>[ix]" ...
    "<key>[oh]"; other arrays pass through. Gradient checks scale their
    relative errors per block: the blocks' gradients differ in magnitude by
    orders, so one scale per W would hide errors in its smaller blocks."""
    out = {}
    for key, arr in arrays.items():
        if key not in input_sizes:
            out[key] = arr
            continue
        n = input_sizes[key]
        for gate, rows in zip("ifgo", np.split(arr, 4)):
            out[f"{key}[{gate}x]"] = rows[:, :n]
            out[f"{key}[{gate}h]"] = rows[:, n:]
    return out


@pytest.fixture
def gate_blocks():
    return _split_gate_blocks
