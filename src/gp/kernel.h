/**
 * @file
 * Covariance kernels for the Gaussian-process surrogate model.
 *
 * The paper (Sec. 4, "Surrogate Model") selects the Matérn covariance
 * because it does not impose strong smoothness on the objective —
 * CLITE's score function has a kink at the QoS boundary. We provide
 * Matérn-5/2 (the library default, the common "Matérn" choice in BO
 * practice, e.g. Snoek et al.), Matérn-3/2, and the squared-exponential
 * RBF for the kernel ablation bench.
 *
 * All kernels use ARD (one length-scale per input dimension) plus a
 * signal variance, parameterized in log space so hyper-parameter
 * optimization stays unconstrained.
 */

#ifndef CLITE_GP_KERNEL_H
#define CLITE_GP_KERNEL_H

#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace clite {
namespace gp {

/**
 * Abstract stationary ARD kernel.
 */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /** Covariance between two points. @pre a.size()==b.size()==dims() */
    virtual double operator()(const linalg::Vector& a,
                              const linalg::Vector& b) const = 0;

    /**
     * Covariance as a function of the ARD-scaled distance
     * r = ||(a-b)/ℓ|| alone (every kernel here is stationary). This is
     * the hook behind the GP's training-set distance cache: the
     * per-pair squared differences are precomputed once per fit, so a
     * hyper-parameter probe rebuilds the Gram matrix from cached
     * distances + this radial profile without re-touching raw inputs.
     * Includes the σ_f² factor: fromScaledDistance(0) == σ_f².
     */
    virtual double fromScaledDistance(double r) const = 0;

    /**
     * Batched radial profile: out[i] = fromScaledDistance(r[i]) for
     * i < count, bit-identical to @p count scalar calls. Overridden by
     * every concrete kernel with a branch-free loop that hoists σ_f²
     * out of the loop (exp is deterministic, so the hoisted value is
     * the one each scalar call recomputes) — it fills the batched
     * posterior's whole cross-covariance panel in one call.
     */
    virtual void fromScaledDistanceBatch(const double* r, double* out,
                                         size_t count) const;

    /** All per-dimension length-scales materialized (exp applied). */
    std::vector<double> lengthscales() const;

    /** Human-readable name ("matern52", ...). */
    virtual std::string name() const = 0;

    /** Deep copy. */
    virtual std::unique_ptr<Kernel> clone() const = 0;

    /** Input dimensionality. */
    size_t dims() const { return log_lengthscales_.size(); }

    /**
     * Tie all length-scales to a single value (isotropic kernel).
     * ARD's per-dimension scales overfit badly when the sample count
     * is comparable to the dimension, as in CLITE's few-dozen-sample
     * regime; isotropic is the robust default there.
     */
    void setIsotropic(bool isotropic);

    /** True when length-scales are tied. */
    bool isotropic() const { return isotropic_; }

    /**
     * Number of log-space hyper-parameters: 2 when isotropic (signal,
     * shared length-scale), 1 + dims otherwise.
     */
    size_t numParams() const;

    /** Current log-space parameters: [log σ_f², log ℓ_1, ..., log ℓ_d]. */
    std::vector<double> logParams() const;

    /** Set log-space parameters. @pre p.size() == numParams() */
    void setLogParams(const std::vector<double>& p);

    /** Signal variance σ_f². */
    double signalVariance() const;

    /** Length-scale of dimension @p d. */
    double lengthscale(size_t d) const;

  protected:
    /**
     * @param dims Input dimensionality.
     * @param lengthscale Initial isotropic length-scale.
     * @param signal_variance Initial σ_f².
     */
    Kernel(size_t dims, double lengthscale, double signal_variance);

    /** ARD-scaled Euclidean distance r = ||(a-b)/ℓ||. */
    double scaledDistance(const linalg::Vector& a,
                          const linalg::Vector& b) const;

    double log_signal_variance_;
    std::vector<double> log_lengthscales_;
    bool isotropic_ = false;
};

/** Matérn ν=5/2 kernel: σ²(1 + √5r + 5r²/3)·exp(−√5r). */
class Matern52Kernel : public Kernel
{
  public:
    explicit Matern52Kernel(size_t dims, double lengthscale = 1.0,
                            double signal_variance = 1.0);
    double operator()(const linalg::Vector& a,
                      const linalg::Vector& b) const override;
    double fromScaledDistance(double r) const override;
    void fromScaledDistanceBatch(const double* r, double* out,
                                 size_t count) const override;
    std::string name() const override { return "matern52"; }
    std::unique_ptr<Kernel> clone() const override;
};

/** Matérn ν=3/2 kernel: σ²(1 + √3r)·exp(−√3r). */
class Matern32Kernel : public Kernel
{
  public:
    explicit Matern32Kernel(size_t dims, double lengthscale = 1.0,
                            double signal_variance = 1.0);
    double operator()(const linalg::Vector& a,
                      const linalg::Vector& b) const override;
    double fromScaledDistance(double r) const override;
    void fromScaledDistanceBatch(const double* r, double* out,
                                 size_t count) const override;
    std::string name() const override { return "matern32"; }
    std::unique_ptr<Kernel> clone() const override;
};

/** Squared-exponential kernel: σ²·exp(−r²/2). */
class RbfKernel : public Kernel
{
  public:
    explicit RbfKernel(size_t dims, double lengthscale = 1.0,
                       double signal_variance = 1.0);
    double operator()(const linalg::Vector& a,
                      const linalg::Vector& b) const override;
    double fromScaledDistance(double r) const override;
    void fromScaledDistanceBatch(const double* r, double* out,
                                 size_t count) const override;
    std::string name() const override { return "rbf"; }
    std::unique_ptr<Kernel> clone() const override;
};

/**
 * Factory by name ("matern52" | "matern32" | "rbf"); used by configs
 * and the kernel-ablation bench.
 * @throws clite::Error for an unknown name.
 */
std::unique_ptr<Kernel> makeKernel(const std::string& name, size_t dims,
                                   double lengthscale = 1.0,
                                   double signal_variance = 1.0);

} // namespace gp
} // namespace clite

#endif // CLITE_GP_KERNEL_H
