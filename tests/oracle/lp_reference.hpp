#pragma once

// The original explicit-inverse LP basis kernel, kept as the differential
// reference for the production sparse LU (lp/basis.hpp). It stores the
// dense m*m inverse (O(m^2) memory and per-pivot work), so it is unusable
// at the ring-construction sizes; only the differential test suites link
// it, through lp::detail::solve.

#include <memory>

#include "lp/basis.hpp"

namespace xring::lp::reference {

/// A dense explicit-inverse basis of an m-row problem (the pre-sparse
/// solver's arithmetic: same loop order, same eta-update formula).
std::unique_ptr<BasisRep> make_dense_basis(int m);

}  // namespace xring::lp::reference
