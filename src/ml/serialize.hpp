// Model checkpointing: plain-text, versioned blocks for the SVM and its
// feature scaler, so a trained MobiRescue deployment can be saved once and
// reloaded across runs (the paper's system trains on historical disasters
// well before the one it serves). The service checkpoint
// (serve/checkpoint.hpp) builds them into its one buffer and reads them
// back through its one reader.
//
// Every save appends its block to a util::TextWriter (shortest round-trip
// doubles); every load reads it from a util::TextReader, which takes both
// those digits and the max_digits10 digits older files carry. Unlike the
// DQN weights, these values must be finite: a "nan" or "inf" throws.
#pragma once

#include <cstddef>

#include "ml/svm/scaler.hpp"
#include "ml/svm/svm.hpp"
#include "util/text_reader.hpp"
#include "util/text_writer.hpp"

namespace mobirescue::ml {

/// Topology bounds the loaders enforce on sizes read from (possibly
/// corrupt) input before anything is allocated; generous against anything
/// the system produces.
inline constexpr std::size_t kMaxFeatureDim = 1u << 16;
inline constexpr std::size_t kMaxHiddenLayers = 64;

/// Appends the SVM (kernel config, support vectors, coefficients, bias).
void SaveSvm(const SvmModel& model, util::TextWriter& out);
/// Reads an SVM written by SaveSvm; throws std::runtime_error on malformed
/// input.
SvmModel LoadSvm(util::TextReader& in);

/// Appends a feature scaler (means + stddevs).
void SaveScaler(const FeatureScaler& scaler, util::TextWriter& out);
FeatureScaler LoadScaler(util::TextReader& in);

}  // namespace mobirescue::ml
