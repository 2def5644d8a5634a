"""Hybrid classical-quantum image preparation.

A JPEG-style front-end compresses grayscale images block-wise; the retained
coefficients are loaded as quantum amplitudes and decompressed coherently
(inverse zigzag, optional block-encoded inverse quantization, inverse 2D
DCT). Dense statevector simulation verifies the circuits, and PSNR/SSIM plus
CX/depth accounting quantify reconstruction quality against classical
baselines.
"""

from .imagio import GrayscaleImage, BlockGrid, load_image, pad_and_partition, assemble_image
from .jpegcore import (QuantTable, classical_reference_decode, dct2_block, idct2_block,
                       sparsity_stats, truncate_zigzag, zigzag_permutation)
from .metrics import QualityReport, psnr, ssim
from .pipeline import (NormalizationRecord, QpieRun, readout_image,
                       run_jqpie, run_qf_jqpie, run_qpie_direct)
from .qcircuit import Circuit, Gate, ResourceReport, compose, export_qasm, resource_counts
from .qsim import StateVector, apply_circuit, postselect_ancilla, state_fidelity
from .synth import (closed_form_resources, synth_inverse_quantization, synth_state_prep,
                    synth_truncated_zigzag)

__version__ = "0.1.0"

__all__ = [
    "GrayscaleImage", "BlockGrid", "load_image", "pad_and_partition", "assemble_image",
    "QuantTable", "classical_reference_decode", "dct2_block", "idct2_block",
    "sparsity_stats", "truncate_zigzag", "zigzag_permutation",
    "QualityReport", "psnr", "ssim",
    "NormalizationRecord", "QpieRun", "readout_image",
    "run_jqpie", "run_qf_jqpie", "run_qpie_direct",
    "Circuit", "Gate", "ResourceReport", "compose", "export_qasm", "resource_counts",
    "StateVector", "apply_circuit", "postselect_ancilla", "state_fidelity",
    "closed_form_resources", "synth_inverse_quantization", "synth_state_prep",
    "synth_truncated_zigzag",
    "__version__",
]
