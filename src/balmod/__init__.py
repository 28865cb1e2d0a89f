"""Balanced modulation toolkit for storage channels.

Balanced and partial-balanced error-correcting codecs, dynamic read-threshold
selection, Gaussian drift channel models, balanced LDPC encoding/decoding,
q-ary balanced codes, and a reproducible simulation harness.
"""

from .channel import (AgedBlock, DriftModel, ERASURE, MEAN_DRIFT,
                      VARIANCE_GROWTH, analytic_ber, analytic_ber_mean_drift,
                      analytic_ber_variance_growth, apply_bec, apply_bsc,
                      make_rng, model_thresholds, sample_levels)
from .em import (ComponentCollapse, FitResult, MixtureParams, e_step, fit,
                 log_likelihood, m_step, per_cell_llr)
from .intervals import IntervalSet
from .ldpc import (BalancedDecodeResult, BpResult, LdpcCode, balanced_decode,
                   balanced_decode_bsc, balanced_decode_soft, balanced_encode,
                   bp_decode, bsc_llr,
                   build_gallager, candidate_inversions, encode, lambda_scores,
                   load_code, save_code, syndrome)
from .bec import (BecResult, bec_decode, check_interval_sets, genie_peel)
from .mlc import (BalancingTrace, bits_to_balanced, balanced_to_bits,
                  knuth_q_balance, knuth_q_unbalance, min_balanced_length,
                  multinomial, rank_balanced, rank_multiset, redundancy_factor,
                  trace_bit_cost, unrank_balanced, unrank_multiset)
from .partial import (PartialCodeword, PartialScheme, PbDecodeResult,
                      make_partial_scheme, pb_decode, pb_encode, pb_read,
                      rate_fixed_vs_partial)
from .thresholds import (BalancingThreshold, ErrorCounts,
                         balancing_threshold_bisect, balancing_threshold_exact,
                         error_counts, optimal_threshold_oracle,
                         read_with_threshold, relaxed_threshold_mean,
                         relaxed_threshold_second_order)
from .words import (BalancedWord, BitWord, KnuthCodeword, as_bits, balance,
                    find_balancing_index, invert_prefix, knuth_decode, knuth_encode, weight)

__version__ = "0.1.0"
