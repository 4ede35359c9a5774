"""friendlyfec: transmit-side perturbations that help a fixed BP receiver.

A numpy toolkit for channel-coding experiments where the transmitter
perturbs modulated codewords, within the average power constraint, to
lower BER/BLER at an unmodified belief-propagation decoder. The
perturbation is found by gradient descent through a differentiable
channel + demapper + decoder chain.
"""

from .attack import (AttackVector, SearchConfig, apply_attack, approach_config,
                     attacked_zero_word, cluster_attacks, find_search_sigma,
                     load_attack, normalize_power, run_regime, save_attack,
                     search_attack, select_best)
from .bp import (BpOutput, BpTape, DecoderConfig, TannerGraph, bp_backward,
                 bp_forward, bp_loss, finite_difference)
from .channel import (ChannelParams, FrameRng, child_seed, ebn0_to_sigma,
                      sigma_to_ebn0, transmit)
from .codes import (AlistError, CodeSpec, bhattacharyya_recursion, code_from_alist,
                    hamming_7_4, ldpc_64_32, load_alist, polar_bhattacharyya,
                    polar_construct, repetition_code, save_alist, uncoded)
from .gf2 import encode, generator_from_parity, matmul, rank, rref
from .modem import (Constellation, demodulate_adjoint, demodulate_llr,
                    get_constellation, modulate)
from .montecarlo import (MonteCarloResult, TransferReport, read_csv, run_point,
                         run_rows, sweep, transfer_check, write_csv)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
