#pragma once

/// \file m61xn.hpp
/// SIMD engine report of the field backend. The field sweeps are scalar
/// loops over M61, so the report always reads "scalar". Kept for the
/// benchmark harness, which records simd_caps().active in every run's
/// context.

namespace ppds::field {

/// Which SIMD engine the field sweeps use.
struct SimdCaps {
  const char* active = "scalar";  ///< always "scalar"
};

inline const SimdCaps& simd_caps() {
  static const SimdCaps caps;
  return caps;
}

}  // namespace ppds::field
