// Experiment scale knobs.
//
// Every bench regenerates a paper table; absolute cost is controlled by a
// single BPROM_SCALE environment variable so CI can smoke-test (0) while a
// workstation runs the full sweep (2).
#pragma once

#include <cstddef>
#include <string>

namespace bprom::util {

enum class Scale { kSmoke = 0, kDefault = 1, kHeavy = 2 };

/// Reads BPROM_SCALE (0/1/2); defaults to kDefault.
Scale scale();

/// Integer env override helper: returns `fallback` when unset/invalid.
std::size_t env_size(const std::string& name, std::size_t fallback);

}  // namespace bprom::util
