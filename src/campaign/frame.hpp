// campaign payload codecs — the bodies of the scheduler service's
// campaign plugin: a CellRequest on the way in, a CellResult on the way
// out (see DESIGN.md "Service").
//
// Payloads use snapshot_io's primitives: little-endian fixed-width
// integers, bit-cast doubles (what makes a remote cell's SimResult
// bit-identical to a local run's), and bounds-checked reads with
// reserve() capped by bytes actually received.
#pragma once

#include <string>
#include <string_view>

#include "campaign/campaign.hpp"
#include "util/result.hpp"

namespace amjs::campaign {

[[nodiscard]] std::string encode_run_cell_payload(const CellRequest& cell);
[[nodiscard]] std::string encode_cell_result_payload(const CellResult& result);

/// The envelope has already verified header + CRC.
[[nodiscard]] Result<CellRequest> decode_run_cell(std::string_view payload);
[[nodiscard]] Result<CellResult> decode_cell_result(std::string_view payload);

}  // namespace amjs::campaign
