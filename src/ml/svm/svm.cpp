#include "ml/svm/svm.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "ml/nn/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace mobirescue::ml {

namespace {

// TrainSvm is a free function and SvmModel is copied around freely, so the
// instruments live as function-local statics instead of members (leaked
// never — statics with process lifetime, registered once).
obs::Counter& TrainCounter() {
  static obs::Counter c("ml_svm_train_total", "SVM trainings completed.");
  return c;
}

obs::Histogram& TrainHistogram() {
  static obs::Histogram h("ml_svm_train_ms",
                          "Wall time of one SMO training run (ms).",
                          obs::Histogram::LatencyBucketsMs());
  return h;
}

obs::Counter& PredictCounter() {
  static obs::Counter c("ml_svm_predict_total",
                        "SVM single-point predictions.");
  return c;
}

// bias + w.x, features ascending: the one linear scoring expression, shared
// by DecisionValue and DecisionValues so the two agree bit for bit. Without
// support vectors w is empty and every row scores at the bias.
double PrimalValue(const std::vector<double>& w, double bias,
                   const double* x) {
  double dot = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k) dot += w[k] * x[k];
  return bias + dot;
}

// EvalKernel's arithmetic split in two: a per-feature term, summed from 0.0
// in ascending feature order, and the transform of that sum.
struct RbfTerms {
  double gamma;
  double Term(double s, double x) const {
    const double t = s - x;
    return t * t;
  }
  double Finish(double sum) const { return std::exp(-gamma * sum); }
};

struct PolyTerms {
  double coef0;
  int degree;
  double Term(double s, double x) const { return s * x; }
  double Finish(double sum) const { return std::pow(sum + coef0, degree); }
};

// Adds sum_i coeff[i] * k(sv_i, x_l) to out[l] for kLanes consecutive
// d-wide query rows x_l, in one pass over the support vectors. Each lane
// accumulates in DecisionValue's order (features ascending inside a
// kernel, support vectors ascending outside), so every lane's value is
// bit-identical to it.
template <std::size_t kLanes, typename Terms>
void ScoreLanes(const Terms& terms, const double* sv_flat,
                const std::vector<double>& coeff, std::size_t d,
                const double* q, double* out) {
  double v[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) v[l] = out[l];
  for (std::size_t i = 0; i < coeff.size(); ++i) {
    const double* sv = sv_flat + i * d;
    double sum[kLanes] = {};
    for (std::size_t k = 0; k < d; ++k) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        sum[l] += terms.Term(sv[k], q[l * d + k]);
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      v[l] += coeff[i] * terms.Finish(sum[l]);
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) out[l] = v[l];
}

// Scores the rows of the row-major query block q in blocks of 4 (one pass
// over the support vectors per block), then the remaining rows one by one.
template <typename Terms>
void ScoreRows(const Terms& terms, const double* sv_flat,
               const std::vector<double>& coeff, std::size_t d,
               const double* q, std::span<double> out) {
  constexpr std::size_t kBlock = 4;
  std::size_t r = 0;
  for (; r + kBlock <= out.size(); r += kBlock) {
    ScoreLanes<kBlock>(terms, sv_flat, coeff, d, q + r * d, out.data() + r);
  }
  for (; r < out.size(); ++r) {
    ScoreLanes<1>(terms, sv_flat, coeff, d, q + r * d, out.data() + r);
  }
}

}  // namespace

void SvmDataset::Add(std::vector<double> features, int label) {
  if (label != 1 && label != -1) {
    throw std::invalid_argument("SvmDataset: label must be +-1");
  }
  x.push_back(std::move(features));
  y.push_back(label);
}

SvmModel::SvmModel(KernelConfig kernel,
                   std::vector<std::vector<double>> support_x,
                   std::vector<double> coeff, double bias)
    : kernel_(kernel),
      support_x_(std::move(support_x)),
      coeff_(std::move(coeff)),
      bias_(bias) {
  if (support_x_.size() != coeff_.size()) {
    throw std::invalid_argument("SvmModel: sv/coeff size mismatch");
  }
  dim_ = support_x_.empty() ? 0 : support_x_.front().size();
  sv_flat_.reserve(support_x_.size() * dim_);
  for (const std::vector<double>& sv : support_x_) {
    if (sv.size() != dim_) {
      throw std::invalid_argument("SvmModel: ragged support vectors");
    }
    sv_flat_.insert(sv_flat_.end(), sv.begin(), sv.end());
  }
  if (kernel_.type == KernelType::kLinear) {
    // sum_i coeff_i * k(sv_i, x) = (sum_i coeff_i * sv_i) . x for the
    // linear kernel: fold the support vectors once, ascending.
    w_.assign(dim_, 0.0);
    for (std::size_t i = 0; i < coeff_.size(); ++i) {
      for (std::size_t k = 0; k < dim_; ++k) {
        w_[k] += coeff_[i] * sv_flat_[i * dim_ + k];
      }
    }
  }
}

double SvmModel::DecisionValue(std::span<const double> features) const {
  if (!coeff_.empty() && features.size() != dim_) {
    throw std::invalid_argument("DecisionValue: dimension mismatch");
  }
  if (kernel_.type == KernelType::kLinear) {
    return PrimalValue(w_, bias_, features.data());
  }
  double v = bias_;
  for (std::size_t i = 0; i < coeff_.size(); ++i) {
    const std::span<const double> sv(sv_flat_.data() + i * dim_, dim_);
    v += coeff_[i] * EvalKernel(kernel_, sv, features);
  }
  return v;
}

void SvmModel::DecisionValues(std::span<const double> rows, std::size_t dim,
                              std::span<double> out) const {
  if (rows.size() != out.size() * dim) {
    throw std::invalid_argument("DecisionValues: buffer size mismatch");
  }
  if (!coeff_.empty() && dim != dim_) {
    throw std::invalid_argument("DecisionValues: dimension mismatch");
  }
  // The kernel switch sits outside the loops: the kernel cases each run
  // one inlined kernel over every (row, support vector) pair.
  const double* q = rows.data();
  const double* sv = sv_flat_.data();
  switch (kernel_.type) {
    case KernelType::kLinear:
      for (std::size_t r = 0; r < out.size(); ++r) {
        out[r] = PrimalValue(w_, bias_, q + r * dim);
      }
      break;
    case KernelType::kRbf:
      std::fill(out.begin(), out.end(), bias_);
      ScoreRows(RbfTerms{kernel_.gamma}, sv, coeff_, dim, q, out);
      break;
    case KernelType::kPolynomial:
      std::fill(out.begin(), out.end(), bias_);
      ScoreRows(PolyTerms{kernel_.coef0, kernel_.degree}, sv, coeff_, dim, q,
                out);
      break;
  }
}

std::vector<double> SvmModel::DecisionValues(
    const std::vector<std::vector<double>>& rows) const {
  const std::size_t d = rows.empty() ? dim_ : rows.front().size();
  std::vector<double> q_flat;
  q_flat.reserve(rows.size() * d);
  for (const std::vector<double>& row : rows) {
    if (row.size() != d) {
      throw std::invalid_argument("DecisionValues: ragged rows");
    }
    q_flat.insert(q_flat.end(), row.begin(), row.end());
  }
  std::vector<double> out(rows.size());
  DecisionValues(q_flat, d, out);
  return out;
}

int SvmModel::Predict(std::span<const double> features) const {
  PredictCounter().Increment();
  return DecisionValue(features) >= 0.0 ? 1 : -1;
}

SvmModel TrainSvm(const SvmDataset& data, const SvmConfig& config) {
  const std::size_t n = data.size();
  if (n == 0) throw std::invalid_argument("TrainSvm: empty dataset");
  if (data.y.size() != n) throw std::invalid_argument("TrainSvm: x/y mismatch");
  OBS_SPAN("svm.train");
  const auto train_t0 = std::chrono::steady_clock::now();

  // Precompute the Gram matrix; the training sets here (a few thousand
  // rows) keep this comfortably in memory and dominate runtime otherwise.
  // Dot-product kernels (linear, polynomial) build it as one X * X^T GEMM
  // through the blocked Matrix kernels; RBF needs per-pair evaluation.
  const std::size_t dim = data.x.front().size();
  for (const std::vector<double>& row : data.x) {
    if (row.size() != dim) {
      throw std::invalid_argument("TrainSvm: ragged feature rows");
    }
  }
  std::vector<double> gram(n * n);
  if (config.kernel.type == KernelType::kLinear ||
      config.kernel.type == KernelType::kPolynomial) {
    Matrix x(n, dim);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(data.x[i].begin(), data.x[i].end(),
                x.data().begin() + i * dim);
    }
    Matrix g = x.MatMulTransposed(x);
    if (config.kernel.type == KernelType::kPolynomial) {
      const double c0 = config.kernel.coef0;
      const int deg = config.kernel.degree;
      g.Apply([c0, deg](double dot) { return std::pow(dot + c0, deg); });
    }
    gram = std::move(g.data());
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        const double k = EvalKernel(config.kernel, data.x[i], data.x[j]);
        gram[i * n + j] = k;
        gram[j * n + i] = k;
      }
    }
  }
  auto K = [&](std::size_t i, std::size_t j) { return gram[i * n + j]; };

  std::vector<double> alpha(n, 0.0);
  double b = 0.0;
  util::Rng rng(config.seed);

  // Scalar reference: f(x_q) recomputed from the live alphas, O(n_sv) per
  // candidate. This is the use_error_cache=false path the microbenches
  // compare the cache against.
  auto decision = [&](std::size_t q) {
    double v = b;
    for (std::size_t t = 0; t < n; ++t) {
      if (alpha[t] != 0.0) v += alpha[t] * data.y[t] * K(t, q);
    }
    return v;
  };

  // SMO error cache (Platt): err[i] tracks f(x_i) - y_i incrementally.
  // A successful pair update changes f by rank-2 kernel rows plus the bias
  // shift, so refreshing every cached error is O(n) — against the O(n *
  // n_sv) full decision recomputation the cache replaces for EVERY
  // candidate pair, including the ones that end up skipped.
  // With all alphas 0 and b = 0, f(x_i) = 0.
  std::vector<double> err;
  if (config.use_error_cache) {
    err.resize(n);
    for (std::size_t i = 0; i < n; ++i) err[i] = -data.y[i];
  }

  // Attempts the (i, j) pair update. Returns false if any SMO guard
  // rejects the pair or the step is numerically negligible.
  auto take_step = [&](std::size_t i, double ei, std::size_t j,
                       double ej) -> bool {
    const double ai_old = alpha[i], aj_old = alpha[j];
    double lo, hi;
    if (data.y[i] != data.y[j]) {
      lo = std::max(0.0, aj_old - ai_old);
      hi = std::min(config.c, config.c + aj_old - ai_old);
    } else {
      lo = std::max(0.0, ai_old + aj_old - config.c);
      hi = std::min(config.c, ai_old + aj_old);
    }
    if (lo >= hi) return false;

    const double eta = 2.0 * K(i, j) - K(i, i) - K(j, j);
    if (eta >= 0.0) return false;

    double aj = aj_old - data.y[j] * (ei - ej) / eta;
    aj = std::clamp(aj, lo, hi);
    if (std::abs(aj - aj_old) < 1e-6) return false;

    const double ai = ai_old + data.y[i] * data.y[j] * (aj_old - aj);
    alpha[i] = ai;
    alpha[j] = aj;

    const double b1 = b - ei - data.y[i] * (ai - ai_old) * K(i, i) -
                      data.y[j] * (aj - aj_old) * K(i, j);
    const double b2 = b - ej - data.y[i] * (ai - ai_old) * K(i, j) -
                      data.y[j] * (aj - aj_old) * K(j, j);
    const double b_old = b;
    if (ai > 0.0 && ai < config.c) {
      b = b1;
    } else if (aj > 0.0 && aj < config.c) {
      b = b2;
    } else {
      b = (b1 + b2) / 2.0;
    }

    if (config.use_error_cache) {
      // Rank-2 error-cache refresh along the two touched Gram rows.
      const double di = (ai - ai_old) * data.y[i];
      const double dj = (aj - aj_old) * data.y[j];
      const double db = b - b_old;
      const double* __restrict ki = gram.data() + i * n;
      const double* __restrict kj = gram.data() + j * n;
      double* __restrict e = err.data();
      for (std::size_t t = 0; t < n; ++t) {
        e[t] += di * ki[t] + dj * kj[t] + db;
      }
    }
    return true;
  };

  int passes = 0;
  int iter = 0;
  // n == 1 has no working pair; alpha stays 0 and the model is bias-only.
  while (n >= 2 && passes < config.max_passes && iter < config.max_iterations) {
    ++iter;
    int changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double ei =
          config.use_error_cache ? err[i] : decision(i) - data.y[i];
      const bool violates =
          (data.y[i] * ei < -config.tolerance && alpha[i] < config.c) ||
          (data.y[i] * ei > config.tolerance && alpha[i] > 0.0);
      if (!violates) continue;

      if (config.use_error_cache) {
        // Platt's second-choice heuristic: the cache makes the argmax
        // |E_i - E_j| scan a cheap streaming pass over err, so take the
        // partner promising the largest step. If the SMO guards reject
        // that pair, fall back to one random partner so a degenerate
        // argmax choice cannot stall the sweep.
        std::size_t j = (i == 0) ? 1 : 0;
        double best_gap = -1.0;
        for (std::size_t t = 0; t < n; ++t) {
          if (t == i) continue;
          const double gap = std::abs(ei - err[t]);
          if (gap > best_gap) {
            best_gap = gap;
            j = t;
          }
        }
        if (take_step(i, ei, j, err[j])) {
          ++changed;
          continue;
        }
        std::size_t r = rng.Index(n - 1);
        if (r >= i) ++r;  // r != i, uniform over the rest
        if (r != j && take_step(i, ei, r, err[r])) ++changed;
      } else {
        std::size_t j = rng.Index(n - 1);
        if (j >= i) ++j;  // j != i, uniform over the rest
        const double ej = decision(j) - data.y[j];
        if (take_step(i, ei, j, ej)) ++changed;
      }
    }
    passes = (changed == 0) ? passes + 1 : 0;
  }

  // Keep only the support vectors.
  std::vector<std::vector<double>> sv;
  std::vector<double> coeff;
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > 1e-8) {
      sv.push_back(data.x[i]);
      coeff.push_back(alpha[i] * data.y[i]);
    }
  }
  TrainCounter().Increment();
  TrainHistogram().Observe(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - train_t0)
                               .count());
  return SvmModel(config.kernel, std::move(sv), std::move(coeff), b);
}

}  // namespace mobirescue::ml
