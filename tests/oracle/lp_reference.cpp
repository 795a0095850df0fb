#include "oracle/lp_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace xring::lp::reference {

namespace {

class DenseInverseBasis final : public BasisRep {
 public:
  explicit DenseInverseBasis(int m) : m_(m) {
    binv_.assign(static_cast<std::size_t>(m) * m, 0.0);
  }

  bool factorize(const std::vector<SparseCol>& cols,
                 const std::vector<int>& basis) override {
    ++stats.factorizations;
    const int m = m_;
    if (m == 0) return true;
    // Gauss-Jordan with partial pivoting on [B | I]. For the initial signed
    // identity basis (all artificials) this degenerates to copying the signs
    // exactly, which keeps the cold-start path bit-identical to the
    // historical kernel.
    std::vector<double> a(static_cast<std::size_t>(m) * m, 0.0);
    for (int j = 0; j < m; ++j) {
      for (const auto& [r, v] : cols[basis[j]]) {
        a[static_cast<std::size_t>(r) * m + j] += v;
      }
    }
    std::fill(binv_.begin(), binv_.end(), 0.0);
    for (int i = 0; i < m; ++i) binv_[static_cast<std::size_t>(i) * m + i] = 1.0;
    for (int col = 0; col < m; ++col) {
      int piv_row = -1;
      double piv_abs = 0.0;
      for (int r = col; r < m; ++r) {
        const double v = std::abs(a[static_cast<std::size_t>(r) * m + col]);
        if (v > piv_abs) {
          piv_abs = v;
          piv_row = r;
        }
      }
      if (piv_row < 0 || piv_abs < 1e-12) return false;
      if (piv_row != col) {
        for (int j = 0; j < m; ++j) {
          std::swap(a[static_cast<std::size_t>(piv_row) * m + j],
                    a[static_cast<std::size_t>(col) * m + j]);
          std::swap(binv_[static_cast<std::size_t>(piv_row) * m + j],
                    binv_[static_cast<std::size_t>(col) * m + j]);
        }
      }
      const double piv = a[static_cast<std::size_t>(col) * m + col];
      for (int j = 0; j < m; ++j) {
        a[static_cast<std::size_t>(col) * m + j] /= piv;
        binv_[static_cast<std::size_t>(col) * m + j] /= piv;
      }
      for (int r = 0; r < m; ++r) {
        if (r == col) continue;
        const double f = a[static_cast<std::size_t>(r) * m + col];
        if (f == 0.0) continue;
        for (int j = 0; j < m; ++j) {
          a[static_cast<std::size_t>(r) * m + j] -=
              f * a[static_cast<std::size_t>(col) * m + j];
          binv_[static_cast<std::size_t>(r) * m + j] -=
              f * binv_[static_cast<std::size_t>(col) * m + j];
        }
      }
    }
    return true;
  }

  void ftran(const SparseCol& a, std::vector<double>& w,
             std::vector<int>& nz) override {
    const int m = m_;
    w.resize(m);
    const double* __restrict binv = binv_.data();
    double* __restrict wp = w.data();
    for (int i = 0; i < m; ++i) {
      const double* __restrict row = binv + static_cast<std::size_t>(i) * m;
      double acc = 0.0;
      for (const auto& [r, av] : a) acc += row[r] * av;
      wp[i] = acc;
    }
    nz.clear();
    for (int i = 0; i < m; ++i) {
      if (wp[i] != 0.0) nz.push_back(i);
    }
    ++stats.ftran_calls;
    stats.ftran_nnz += static_cast<long long>(nz.size());
  }

  void ftran_dense(const std::vector<double>& b,
                   std::vector<double>& x) override {
    const int m = m_;
    x.assign(m, 0.0);
    for (int i = 0; i < m; ++i) {
      double v = 0.0;
      const double* row = binv_.data() + static_cast<std::size_t>(i) * m;
      for (int j = 0; j < m; ++j) v += row[j] * b[j];
      x[i] = v;
    }
  }

  void btran(const std::vector<double>& cb, std::vector<double>& y) override {
    const int m = m_;
    y.assign(m, 0.0);
    const double* __restrict binv = binv_.data();
    double* __restrict yp = y.data();
    for (int i = 0; i < m; ++i) {
      const double c = cb[i];
      if (c == 0.0) continue;
      const double* __restrict row = binv + static_cast<std::size_t>(i) * m;
      for (int j = 0; j < m; ++j) yp[j] += c * row[j];
    }
  }

  Update update(int leave, const std::vector<double>& w,
                const std::vector<int>& wnz) override {
    const int m = m_;
    const double piv = w[leave];
    if (std::abs(piv) < 1e-12) return Update::kSingular;
    double* __restrict binv = binv_.data();
    double* __restrict lrow = binv + static_cast<std::size_t>(leave) * m;
    for (int j = 0; j < m; ++j) lrow[j] /= piv;
    eta_nz_.clear();
    for (int j = 0; j < m; ++j) {
      if (lrow[j] != 0.0) eta_nz_.push_back(j);
    }
    for (const int i : wnz) {
      if (i == leave) continue;
      const double f = w[i];
      double* __restrict row = binv + static_cast<std::size_t>(i) * m;
      for (const int j : eta_nz_) row[j] -= f * lrow[j];
    }
    return Update::kOk;
  }

 private:
  int m_;
  std::vector<double> binv_;  // row-major m*m
  std::vector<int> eta_nz_;
};

}  // namespace

std::unique_ptr<BasisRep> make_dense_basis(int m) {
  return std::make_unique<DenseInverseBasis>(m);
}

}  // namespace xring::lp::reference
