// Host-speed calibration for the served-day benchmark.
//
// The shared host this benchmark runs on alternates between speed states
// some 1.3-1.8x apart that last from seconds to minutes, longer than a
// run. CalibrationMs times a fixed, benchmark-owned kernel whose inputs
// never change (a grid Dijkstra, an MLP-shaped dense forward pass and
// hash-map traffic: the shapes of the router, the Q pass and the demand
// maps); the driver times it between served days to read the host's speed
// during the run.
#pragma once

#include "day.hpp"

namespace daybench {

/// Runs the calibration kernel once and returns its wall time (ms).
/// `checksum` (optional) receives the kernel's result, which is constant.
double CalibrationMs(double* checksum = nullptr);

}  // namespace daybench
