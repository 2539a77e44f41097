#include "gp/kernel.h"

#include <cmath>

#include "common/error.h"

namespace clite {
namespace gp {

Kernel::Kernel(size_t dims, double lengthscale, double signal_variance)
{
    CLITE_CHECK(dims > 0, "kernel needs dims > 0");
    CLITE_CHECK(lengthscale > 0.0, "lengthscale must be > 0");
    CLITE_CHECK(signal_variance > 0.0, "signal variance must be > 0");
    log_signal_variance_ = std::log(signal_variance);
    log_lengthscales_.assign(dims, std::log(lengthscale));
}

void
Kernel::setIsotropic(bool isotropic)
{
    isotropic_ = isotropic;
    if (isotropic_) {
        // Tie all scales to the first one.
        for (size_t d = 1; d < log_lengthscales_.size(); ++d)
            log_lengthscales_[d] = log_lengthscales_[0];
    }
}

size_t
Kernel::numParams() const
{
    return isotropic_ ? 2 : 1 + log_lengthscales_.size();
}

std::vector<double>
Kernel::logParams() const
{
    std::vector<double> p;
    p.reserve(numParams());
    p.push_back(log_signal_variance_);
    if (isotropic_)
        p.push_back(log_lengthscales_[0]);
    else
        p.insert(p.end(), log_lengthscales_.begin(),
                 log_lengthscales_.end());
    return p;
}

void
Kernel::setLogParams(const std::vector<double>& p)
{
    CLITE_CHECK(p.size() == numParams(),
                "kernel expects " << numParams() << " params, got "
                                  << p.size());
    log_signal_variance_ = p[0];
    if (isotropic_) {
        for (double& l : log_lengthscales_)
            l = p[1];
    } else {
        for (size_t d = 0; d < log_lengthscales_.size(); ++d)
            log_lengthscales_[d] = p[d + 1];
    }
}

double
Kernel::signalVariance() const
{
    return std::exp(log_signal_variance_);
}

double
Kernel::lengthscale(size_t d) const
{
    CLITE_CHECK(d < log_lengthscales_.size(), "lengthscale dim " << d
                    << " out of " << log_lengthscales_.size());
    return std::exp(log_lengthscales_[d]);
}

std::vector<double>
Kernel::lengthscales() const
{
    std::vector<double> ls(dims());
    for (size_t d = 0; d < dims(); ++d)
        ls[d] = std::exp(log_lengthscales_[d]);
    return ls;
}

void
Kernel::fromScaledDistanceBatch(const double* r, double* out,
                                size_t count) const
{
    for (size_t i = 0; i < count; ++i)
        out[i] = fromScaledDistance(r[i]);
}

double
Kernel::scaledDistance(const linalg::Vector& a, const linalg::Vector& b) const
{
    CLITE_CHECK(a.size() == dims() && b.size() == dims(),
                "kernel input dims mismatch: " << a.size() << ", "
                    << b.size() << " vs " << dims());
    double r2 = 0.0;
    for (size_t d = 0; d < dims(); ++d) {
        double diff = (a[d] - b[d]) / std::exp(log_lengthscales_[d]);
        r2 += diff * diff;
    }
    return std::sqrt(r2);
}

Matern52Kernel::Matern52Kernel(size_t dims, double lengthscale,
                               double signal_variance)
    : Kernel(dims, lengthscale, signal_variance)
{
}

double
Matern52Kernel::operator()(const linalg::Vector& a,
                           const linalg::Vector& b) const
{
    return fromScaledDistance(scaledDistance(a, b));
}

double
Matern52Kernel::fromScaledDistance(double r) const
{
    double s = std::sqrt(5.0) * r;
    return signalVariance() * (1.0 + s + s * s / 3.0) * std::exp(-s);
}

void
Matern52Kernel::fromScaledDistanceBatch(const double* r, double* out,
                                        size_t count) const
{
    // σ_f² hoisted (exp is deterministic: the hoisted value equals
    // what each scalar call recomputes), loop body textually matches
    // fromScaledDistance so every element is bit-identical.
    const double sv = signalVariance();
    for (size_t i = 0; i < count; ++i) {
        double s = std::sqrt(5.0) * r[i];
        out[i] = sv * (1.0 + s + s * s / 3.0) * std::exp(-s);
    }
}

std::unique_ptr<Kernel>
Matern52Kernel::clone() const
{
    return std::make_unique<Matern52Kernel>(*this);
}

Matern32Kernel::Matern32Kernel(size_t dims, double lengthscale,
                               double signal_variance)
    : Kernel(dims, lengthscale, signal_variance)
{
}

double
Matern32Kernel::operator()(const linalg::Vector& a,
                           const linalg::Vector& b) const
{
    return fromScaledDistance(scaledDistance(a, b));
}

double
Matern32Kernel::fromScaledDistance(double r) const
{
    double s = std::sqrt(3.0) * r;
    return signalVariance() * (1.0 + s) * std::exp(-s);
}

void
Matern32Kernel::fromScaledDistanceBatch(const double* r, double* out,
                                        size_t count) const
{
    const double sv = signalVariance();
    for (size_t i = 0; i < count; ++i) {
        double s = std::sqrt(3.0) * r[i];
        out[i] = sv * (1.0 + s) * std::exp(-s);
    }
}

std::unique_ptr<Kernel>
Matern32Kernel::clone() const
{
    return std::make_unique<Matern32Kernel>(*this);
}

RbfKernel::RbfKernel(size_t dims, double lengthscale, double signal_variance)
    : Kernel(dims, lengthscale, signal_variance)
{
}

double
RbfKernel::operator()(const linalg::Vector& a, const linalg::Vector& b) const
{
    return fromScaledDistance(scaledDistance(a, b));
}

double
RbfKernel::fromScaledDistance(double r) const
{
    return signalVariance() * std::exp(-0.5 * r * r);
}

void
RbfKernel::fromScaledDistanceBatch(const double* r, double* out,
                                   size_t count) const
{
    const double sv = signalVariance();
    for (size_t i = 0; i < count; ++i)
        out[i] = sv * std::exp(-0.5 * r[i] * r[i]);
}

std::unique_ptr<Kernel>
RbfKernel::clone() const
{
    return std::make_unique<RbfKernel>(*this);
}

std::unique_ptr<Kernel>
makeKernel(const std::string& name, size_t dims, double lengthscale,
           double signal_variance)
{
    if (name == "matern52")
        return std::make_unique<Matern52Kernel>(dims, lengthscale,
                                                signal_variance);
    if (name == "matern32")
        return std::make_unique<Matern32Kernel>(dims, lengthscale,
                                                signal_variance);
    if (name == "rbf")
        return std::make_unique<RbfKernel>(dims, lengthscale,
                                           signal_variance);
    CLITE_THROW("unknown kernel name: " << name);
}

} // namespace gp
} // namespace clite
