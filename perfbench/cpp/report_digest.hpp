// Exact fingerprints of the virtual side of a run, for the output checks.
//
// The canonical text lists every virtual-time field of a RunReport with
// doubles in hex-float form, so two texts are equal exactly when every value
// is bitwise equal. The digest is FNV-1a 64 of that text.
#pragma once

#include <string>
#include <vector>

#include "campaign/store.hpp"
#include "core/model.hpp"

namespace perfbench {

std::string report_canonical(const agcm::core::RunReport& report);
std::string report_digest(const agcm::core::RunReport& report);

/// Digest over every cell (name + canonical report) in matrix order.
std::string campaign_digest(
    const std::vector<agcm::campaign::CellResult>& results);

/// 16 lowercase hex digits of FNV-1a 64.
std::string hex_digest(const std::string& text);

}  // namespace perfbench
