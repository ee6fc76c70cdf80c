// Model checkpointing: plain-text, versioned serialization for the SVM and
// the MLP/DQN weights, so a trained MobiRescue deployment can be saved once
// and reloaded across runs (the paper's system trains on historical
// disasters well before the one it serves).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "ml/nn/mlp.hpp"
#include "ml/svm/scaler.hpp"
#include "ml/svm/svm.hpp"

namespace mobirescue::ml {

/// Topology bounds the loaders enforce on sizes read from (possibly
/// corrupt) input before anything is allocated; generous against anything
/// the system produces.
inline constexpr std::size_t kMaxFeatureDim = 1u << 16;
inline constexpr std::size_t kMaxHiddenLayers = 64;

/// Writes the SVM (kernel config, support vectors, coefficients, bias) to a
/// stream; throws std::runtime_error on I/O failure.
void SaveSvm(const SvmModel& model, std::ostream& os);

/// Reads an SVM written by SaveSvm; throws std::runtime_error on malformed
/// input.
SvmModel LoadSvm(std::istream& is);

/// Writes a feature scaler (means + stddevs).
void SaveScaler(const FeatureScaler& scaler, std::ostream& os);
FeatureScaler LoadScaler(std::istream& is);

/// Writes MLP weights (topology must match at load time; the topology
/// header is validated).
void SaveMlpWeights(const Mlp& net, std::ostream& os);
void LoadMlpWeights(Mlp& net, std::istream& is);

/// File-path conveniences.
void SaveSvmToFile(const SvmModel& model, const std::string& path);
SvmModel LoadSvmFromFile(const std::string& path);

}  // namespace mobirescue::ml
