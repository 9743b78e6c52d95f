#include "stamp.hpp"

#include <cstdlib>
#include <fstream>
#include <thread>

#include "native/af_lock.hpp"
#include "native/park.hpp"
#include "native/telemetry.hpp"
#include "native/topology.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size()) {
                return line.substr(colon + 2);
            }
        }
    }
    return "unknown";
}

std::string env_or_unknown(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' ? v : "unknown";
}

}  // namespace

std::vector<std::pair<std::string, std::string>> host_stamp() {
    namespace native = rwr::native;
    std::string parking = native::parking_enabled() ? "on" : "off(RWR_PARK=0)";
    parking += RWR_HAS_FUTEX ? "/futex" : "/portable";
    return {
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"cpu_model", cpu_model()},
        {"llc_domains",
         std::to_string(native::topo::system_topology().num_domains)},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"git_sha", env_or_unknown("PERFBENCH_GIT_SHA")},
        {"src_digest", env_or_unknown("PERFBENCH_SRC_DIGEST")},
        {"compiler", __VERSION__},
        {"telemetry", native::telemetry_enabled() ? "on" : "off"},
        {"parking", parking},
        {"misuse_checks", RWR_AF_MISUSE_CHECKS ? "on" : "off"},
    };
}

}  // namespace perfbench
