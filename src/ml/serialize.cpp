#include "ml/serialize.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace mobirescue::ml {

namespace {

constexpr const char* kSvmMagic = "mobirescue-svm-v1";
constexpr const char* kScalerMagic = "mobirescue-scaler-v1";
constexpr const char* kMlpMagic = "mobirescue-mlp-v1";

void ExpectMagic(std::istream& is, const char* magic) {
  std::string token;
  if (!(is >> token) || token != magic) {
    throw std::runtime_error(std::string("serialize: expected header ") +
                             magic);
  }
}

int KernelToInt(KernelType type) { return static_cast<int>(type); }

KernelType KernelFromInt(int v) {
  switch (v) {
    case 0: return KernelType::kLinear;
    case 1: return KernelType::kRbf;
    case 2: return KernelType::kPolynomial;
  }
  throw std::runtime_error("serialize: unknown kernel id");
}

}  // namespace

void SaveSvm(const SvmModel& model, util::TextWriter& out) {
  out << kSvmMagic << '\n';
  const KernelConfig& k = model.kernel();
  out << KernelToInt(k.type) << ' ' << k.gamma << ' ' << k.degree << ' '
      << k.coef0 << '\n';
  // Reconstruct the SV table through the decision interface is not
  // possible; SvmModel exposes its internals for this purpose.
  out << model.num_support_vectors() << ' ' << model.dimension() << ' '
      << model.bias() << '\n';
  for (std::size_t i = 0; i < model.num_support_vectors(); ++i) {
    out << model.coefficient(i);
    for (double v : model.support_vector(i)) out << ' ' << v;
    out << '\n';
  }
}

void SaveSvm(const SvmModel& model, std::ostream& os) {
  util::TextWriter out;
  SaveSvm(model, out);
  out.WriteTo(os);
  if (!os) throw std::runtime_error("SaveSvm: write failed");
}

SvmModel LoadSvm(std::istream& is) {
  ExpectMagic(is, kSvmMagic);
  KernelConfig kernel;
  int type = 0;
  if (!(is >> type >> kernel.gamma >> kernel.degree >> kernel.coef0)) {
    throw std::runtime_error("LoadSvm: bad kernel block");
  }
  kernel.type = KernelFromInt(type);
  std::size_t n = 0, dim = 0;
  double bias = 0.0;
  if (!(is >> n >> dim >> bias)) {
    throw std::runtime_error("LoadSvm: bad size block");
  }
  if (dim > kMaxFeatureDim) {
    throw std::runtime_error("LoadSvm: dimension out of range");
  }
  // The support vectors grow as they are read: n is untrusted, so it never
  // sizes an allocation, and a short input fails at its first missing value.
  std::vector<std::vector<double>> sv;
  std::vector<double> coeff;
  for (std::size_t i = 0; i < n; ++i) {
    double c = 0.0;
    if (!(is >> c)) throw std::runtime_error("LoadSvm: bad coeff");
    coeff.push_back(c);
    for (double& v : sv.emplace_back(dim)) {
      if (!(is >> v)) throw std::runtime_error("LoadSvm: bad sv");
    }
  }
  return SvmModel(kernel, std::move(sv), std::move(coeff), bias);
}

void SaveScaler(const FeatureScaler& scaler, util::TextWriter& out) {
  out << kScalerMagic << '\n' << scaler.mean().size() << '\n';
  for (double m : scaler.mean()) out << m << ' ';
  out << '\n';
  for (double s : scaler.stddev()) out << s << ' ';
  out << '\n';
}

void SaveScaler(const FeatureScaler& scaler, std::ostream& os) {
  util::TextWriter out;
  SaveScaler(scaler, out);
  out.WriteTo(os);
  if (!os) throw std::runtime_error("SaveScaler: write failed");
}

FeatureScaler LoadScaler(std::istream& is) {
  ExpectMagic(is, kScalerMagic);
  std::size_t dim = 0;
  if (!(is >> dim)) throw std::runtime_error("LoadScaler: bad size");
  if (dim > kMaxFeatureDim) {
    throw std::runtime_error("LoadScaler: dimension out of range");
  }
  std::vector<double> mean(dim), std(dim);
  for (double& v : mean) {
    if (!(is >> v)) throw std::runtime_error("LoadScaler: bad mean");
  }
  for (double& v : std) {
    if (!(is >> v)) throw std::runtime_error("LoadScaler: bad std");
  }
  FeatureScaler scaler;
  scaler.Restore(std::move(mean), std::move(std));
  return scaler;
}

void SaveMlpWeights(const Mlp& net, std::ostream& os) {
  util::TextWriter out;
  out << kMlpMagic << '\n';
  const MlpConfig& config = net.config();
  out << config.input_dim << ' ' << config.output_dim << ' '
      << config.hidden.size();
  for (std::size_t h : config.hidden) out << ' ' << h;
  out << '\n';
  for (double w : net.SaveWeights()) out << w << ' ';
  out << '\n';
  out.WriteTo(os);
  if (!os) throw std::runtime_error("SaveMlpWeights: write failed");
}

void LoadMlpWeights(Mlp& net, std::istream& is) {
  ExpectMagic(is, kMlpMagic);
  std::size_t in = 0, out = 0, layers = 0;
  if (!(is >> in >> out >> layers)) {
    throw std::runtime_error("LoadMlpWeights: bad topology header");
  }
  if (layers > kMaxHiddenLayers) {
    throw std::runtime_error("LoadMlpWeights: layer count out of range");
  }
  std::vector<std::size_t> hidden(layers);
  for (std::size_t& h : hidden) {
    if (!(is >> h)) throw std::runtime_error("LoadMlpWeights: bad hidden");
  }
  const MlpConfig& config = net.config();
  if (in != config.input_dim || out != config.output_dim ||
      hidden != config.hidden) {
    throw std::runtime_error("LoadMlpWeights: topology mismatch");
  }
  std::vector<double> weights(net.num_parameters());
  for (double& w : weights) {
    if (!(is >> w)) throw std::runtime_error("LoadMlpWeights: bad weight");
  }
  net.LoadWeights(weights);
}

void SaveSvmToFile(const SvmModel& model, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("SaveSvmToFile: cannot open " + path);
  SaveSvm(model, os);
}

SvmModel LoadSvmFromFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("LoadSvmFromFile: cannot open " + path);
  return LoadSvm(is);
}

}  // namespace mobirescue::ml
