"""Checkpointing: save/load a Module's parameter tree as ``.npz``."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.io import read_npz, write_npz
from repro.nn.layers import Module

#: trainer checkpoints store the policy's parameters under this prefix
_POLICY_PREFIX = "policy/"


def save_params(module: Module, path) -> None:
    """Atomically write a module's state dict (see :func:`repro.io.write_npz`)."""
    write_npz(path, module.state_dict())


def load_params(module: Module, path) -> None:
    """Load a state dict produced by :func:`save_params` into ``module``.

    Raises
    ------
    ValueError
        If the file fails its integrity check (truncated download,
        interrupted copy, flipped bytes, ...); for the shipped model,
        regenerate it with ``python tools/export_pretrained.py``.
    """
    module.load_state_dict(read_npz(path, what="checkpoint"))


def read_policy_params(path) -> Dict[str, np.ndarray]:
    """A policy state dict from an agent- or trainer-format checkpoint.

    Agent checkpoints (:func:`save_params`, ``SageAgent.save``) hold the
    state dict as-is; trainer checkpoints (``save_checkpoint``) hold the
    policy's parameters under ``policy/``, which is stripped. Integrity
    failures raise ``ValueError`` as in :func:`load_params`.
    """
    data = read_npz(path, what="checkpoint")
    if any(key.startswith(_POLICY_PREFIX) for key in data):
        return {
            key[len(_POLICY_PREFIX):]: value
            for key, value in data.items()
            if key.startswith(_POLICY_PREFIX)
        }
    return data
