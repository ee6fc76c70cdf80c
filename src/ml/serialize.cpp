#include "ml/serialize.hpp"

#include <utility>
#include <vector>

namespace mobirescue::ml {

namespace {

constexpr const char* kSvmMagic = "mobirescue-svm-v1";
constexpr const char* kScalerMagic = "mobirescue-scaler-v1";

int KernelToInt(KernelType type) { return static_cast<int>(type); }

KernelType KernelFromInt(int v, const util::TextReader& in) {
  switch (v) {
    case 0: return KernelType::kLinear;
    case 1: return KernelType::kRbf;
    case 2: return KernelType::kPolynomial;
  }
  in.Fail("unknown SVM kernel id");
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

SvmModel LoadSvm(util::TextReader& in) {
  in.Expect(kSvmMagic);
  KernelConfig kernel;
  int type = 0;
  in >> type;
  kernel.type = KernelFromInt(type, in);
  kernel.gamma = in.Finite();
  in >> kernel.degree;
  kernel.coef0 = in.Finite();
  std::size_t n = 0;
  in >> n;
  const std::size_t dim = in.Count(kMaxFeatureDim);
  const double bias = in.Finite();
  // The support vectors grow as they are read: n is untrusted, so it never
  // sizes an allocation, and a short input fails at its first missing value.
  std::vector<std::vector<double>> sv;
  std::vector<double> coeff;
  for (std::size_t i = 0; i < n; ++i) {
    coeff.push_back(in.Finite());
    for (double& v : sv.emplace_back(dim)) v = in.Finite();
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

FeatureScaler LoadScaler(util::TextReader& in) {
  in.Expect(kScalerMagic);
  const std::size_t dim = in.Count(kMaxFeatureDim);
  std::vector<double> mean(dim), std(dim);
  for (double& v : mean) v = in.Finite();
  for (double& v : std) v = in.Finite();
  FeatureScaler scaler;
  scaler.Restore(std::move(mean), std::move(std));
  return scaler;
}

}  // namespace mobirescue::ml
