// Cache-domain discovery: how many last-level-cache domains the host
// has, and which cpu sits in which. perfbench stamps the domain count into
// every result (`llc_domains`), so a reader can tell a one-LLC host from a
// multi-socket one. The locks themselves are topology-blind: AfLock places
// reader id i in group i / k, and the cost a multi-LLC host adds to that
// placement is the CC/DSM locality gap the simulator measures exactly
// (bench_separation, EXPERIMENTS.md E15).
//
// Discovery: one cache domain per distinct last-level-cache sharing set,
// read from sysfs (cpuN/cache/indexK/shared_cpu_list for the highest
// non-instruction index). Anything missing or unparsable degrades to a
// single domain.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace rwr::native::topo {

/// Parses a sysfs cpulist ("0-3,8,10-11") into cpu indices. Returns empty
/// on any malformed input (callers treat empty as "discovery failed").
inline std::vector<std::uint32_t> parse_cpu_list(const std::string& s) {
    std::vector<std::uint32_t> cpus;
    std::size_t i = 0;
    const auto read_num = [&](std::uint32_t* out) {
        if (i >= s.size() || s[i] < '0' || s[i] > '9') {
            return false;
        }
        std::uint64_t v = 0;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
            v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
            if (v > 0xffffffu) {
                return false;
            }
            ++i;
        }
        *out = static_cast<std::uint32_t>(v);
        return true;
    };
    while (i < s.size()) {
        std::uint32_t lo = 0;
        if (!read_num(&lo)) {
            return {};
        }
        std::uint32_t hi = lo;
        if (i < s.size() && s[i] == '-') {
            ++i;
            if (!read_num(&hi) || hi < lo || hi - lo > 65536) {
                return {};
            }
        }
        for (std::uint32_t c = lo; c <= hi; ++c) {
            cpus.push_back(c);
        }
        if (i < s.size()) {
            if (s[i] != ',' && s[i] != '\n' && s[i] != ' ') {
                return {};
            }
            ++i;
        }
    }
    return cpus;
}

struct CacheTopology {
    std::uint32_t num_domains = 1;
    /// domain_of_cpu[cpu] = domain id; empty means "everything domain 0".
    std::vector<std::uint32_t> domain_of_cpu;

    [[nodiscard]] std::uint32_t domain_of(long cpu) const {
        if (cpu < 0 ||
            static_cast<std::size_t>(cpu) >= domain_of_cpu.size()) {
            return 0;
        }
        return domain_of_cpu[static_cast<std::size_t>(cpu)];
    }
};

/// Reads LLC sharing sets under `cpu_root` (normally
/// "/sys/devices/system/cpu"). Each distinct shared_cpu_list of the
/// highest data/unified cache index becomes one domain. Any failure --
/// directory absent, file unreadable, list unparsable -- returns the
/// single-domain fallback, never throws.
inline CacheTopology discover_sysfs(const std::string& cpu_root) {
    constexpr std::uint32_t kMaxCpus = 4096;
    constexpr std::uint32_t kMaxCacheIndex = 16;
    CacheTopology t;
    std::vector<std::string> domain_keys;
    std::vector<std::uint32_t> map;
    for (std::uint32_t cpu = 0; cpu < kMaxCpus; ++cpu) {
        const std::string cache =
            cpu_root + "/cpu" + std::to_string(cpu) + "/cache";
        // Highest non-instruction index = the last-level cache.
        std::string llc_list;
        for (std::uint32_t idx = 0; idx < kMaxCacheIndex; ++idx) {
            const std::string base = cache + "/index" + std::to_string(idx);
            std::ifstream type_f(base + "/type");
            if (!type_f) {
                break;
            }
            std::string type;
            std::getline(type_f, type);
            if (type == "Instruction") {
                continue;
            }
            std::ifstream list_f(base + "/shared_cpu_list");
            if (!list_f) {
                continue;
            }
            std::getline(list_f, llc_list);  // Deeper index wins.
        }
        if (llc_list.empty()) {
            if (cpu == 0) {
                return t;  // No sysfs at all: single-domain fallback.
            }
            break;  // Ran past the last present cpu.
        }
        if (parse_cpu_list(llc_list).empty()) {
            return CacheTopology{};  // Unparsable: fall back.
        }
        std::uint32_t dom = static_cast<std::uint32_t>(domain_keys.size());
        for (std::uint32_t j = 0; j < domain_keys.size(); ++j) {
            if (domain_keys[j] == llc_list) {
                dom = j;
                break;
            }
        }
        if (dom == domain_keys.size()) {
            domain_keys.push_back(llc_list);
        }
        map.push_back(dom);
    }
    if (map.empty()) {
        return t;
    }
    t.domain_of_cpu = std::move(map);
    t.num_domains = static_cast<std::uint32_t>(domain_keys.size());
    return t;
}

/// The process-wide topology: sysfs discovery, else one domain.
/// Discovered once (first use) and immutable after.
inline const CacheTopology& system_topology() {
    static const CacheTopology topo =
        discover_sysfs("/sys/devices/system/cpu");
    return topo;
}

}  // namespace rwr::native::topo
