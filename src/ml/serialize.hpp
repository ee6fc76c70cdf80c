// Model checkpointing: plain-text, versioned serialization for the SVM and
// the MLP/DQN weights, so a trained MobiRescue deployment can be saved once
// and reloaded across runs (the paper's system trains on historical
// disasters well before the one it serves).
//
// Every save formats its block into one util::TextWriter (shortest
// round-trip doubles) and writes it to the stream once; the readers take
// both those digits and the max_digits10 digits older files carry.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "ml/nn/mlp.hpp"
#include "ml/svm/scaler.hpp"
#include "ml/svm/svm.hpp"
#include "util/text_writer.hpp"

namespace mobirescue::ml {

/// Topology bounds the loaders enforce on sizes read from (possibly
/// corrupt) input before anything is allocated; generous against anything
/// the system produces.
inline constexpr std::size_t kMaxFeatureDim = 1u << 16;
inline constexpr std::size_t kMaxHiddenLayers = 64;

/// Writes the SVM (kernel config, support vectors, coefficients, bias) to a
/// stream; throws std::runtime_error on I/O failure.
void SaveSvm(const SvmModel& model, std::ostream& os);
/// Appends the same text to a writer (the service checkpoint builds all
/// its blocks into one buffer).
void SaveSvm(const SvmModel& model, util::TextWriter& out);

/// Reads an SVM written by SaveSvm; throws std::runtime_error on malformed
/// input.
SvmModel LoadSvm(std::istream& is);

/// Writes a feature scaler (means + stddevs).
void SaveScaler(const FeatureScaler& scaler, std::ostream& os);
void SaveScaler(const FeatureScaler& scaler, util::TextWriter& out);
FeatureScaler LoadScaler(std::istream& is);

/// Writes MLP weights (topology must match at load time; the topology
/// header is validated).
void SaveMlpWeights(const Mlp& net, std::ostream& os);
void LoadMlpWeights(Mlp& net, std::istream& is);

/// File-path conveniences.
void SaveSvmToFile(const SvmModel& model, const std::string& path);
SvmModel LoadSvmFromFile(const std::string& path);

}  // namespace mobirescue::ml
