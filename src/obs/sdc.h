// Counter plumbing for the silent-data-corruption defense layer
// (DESIGN.md §14).  One shared vocabulary across the detectors in core/,
// kmeans/, lanczos/ and service/:
//
//   sdc.checks           checksum / sentinel / CRC verifications run
//   sdc.detected         mismatches found (+ per-site sdc.detected.<site>)
//   sdc.recomputed       detections recovered by an in-place block recompute
//
// sdc.detected / sdc.recomputed mirror into the trace as cumulative counters
// (tools/check_trace.py enforces monotonicity on the sdc.* prefix).
// sdc.checks is registry-only: one per SpMV wave would flood the trace.
#pragma once

#include <string>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fastsc::obs {

inline void sdc_note_check() { metrics().counter("sdc.checks").add(); }

inline void sdc_note_detected(const std::string& site,
                              const std::string& why) {
  bump("sdc.detected");
  metrics().counter("sdc.detected." + site).add();
  FASTSC_LOG_WARN("sdc: corruption detected at '" << site << "' (" << why
                                                  << ")");
}

inline void sdc_note_recomputed(const std::string& site) {
  bump("sdc.recomputed");
  FASTSC_LOG_WARN("sdc: recomputed corrupted block at '" << site << "'");
}

}  // namespace fastsc::obs
