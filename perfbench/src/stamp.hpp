// Host and build facts stamped on every result, so a number measured on
// one machine or build is never read as another's.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Ordered (key, value) pairs: nproc, cpu_model, llc_domains, build_type,
/// git_sha, src_digest, compiler, telemetry, parking, misuse_checks.
/// git_sha and src_digest come from the PERFBENCH_GIT_SHA and
/// PERFBENCH_SRC_DIGEST environment variables ("unknown" when unset).
std::vector<std::pair<std::string, std::string>> host_stamp();

}  // namespace perfbench
