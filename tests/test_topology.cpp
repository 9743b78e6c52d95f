// Cache-domain discovery (native/topology.hpp). Parsing and sysfs
// discovery are tested against synthetic inputs, including a fake sysfs
// tree written under the build directory.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "native/topology.hpp"

namespace {

namespace topo = rwr::native::topo;
namespace fs = std::filesystem;

using U32s = std::vector<std::uint32_t>;

TEST(TopologyParse, CpuListHandlesRangesAndSingles) {
    EXPECT_EQ(topo::parse_cpu_list("0-3,8"), (U32s{0, 1, 2, 3, 8}));
    EXPECT_EQ(topo::parse_cpu_list("5"), (U32s{5}));
    EXPECT_EQ(topo::parse_cpu_list("0,2,4-5\n"), (U32s{0, 2, 4, 5}));
}

TEST(TopologyParse, CpuListRejectsMalformedInput) {
    EXPECT_TRUE(topo::parse_cpu_list("").empty());
    EXPECT_TRUE(topo::parse_cpu_list("a-b").empty());
    EXPECT_TRUE(topo::parse_cpu_list("3-1").empty());
    EXPECT_TRUE(topo::parse_cpu_list("1;2").empty());
}

TEST(TopologyParse, CpuListBoundsIdsAndRangeWidths) {
    EXPECT_EQ(topo::parse_cpu_list("16777215"), (U32s{16777215}));
    EXPECT_TRUE(topo::parse_cpu_list("16777216").empty());  // Id > 2^24 - 1.
    EXPECT_EQ(topo::parse_cpu_list("0-65536").size(), 65537u);
    EXPECT_TRUE(topo::parse_cpu_list("0-65537").empty());  // Range too wide.
    EXPECT_TRUE(topo::parse_cpu_list("1-").empty());
    EXPECT_TRUE(topo::parse_cpu_list("-1").empty());
}

TEST(TopologyDiscover, MissingSysfsFallsBackToOneDomain) {
    const topo::CacheTopology t =
        topo::discover_sysfs("/nonexistent-rwr-sysfs-root");
    EXPECT_EQ(t.num_domains, 1u);
    EXPECT_TRUE(t.domain_of_cpu.empty());
}

/// Writes a minimal fake sysfs cpu tree in the CWD (the build directory
/// under ctest). Each entry of `indices` is one cache level:
/// {type, shared_cpu_list for cpu c}.
class FakeSysfs {
public:
    explicit FakeSysfs(const std::string& name) : root_(fs::path(name)) {
        fs::remove_all(root_);
    }
    ~FakeSysfs() { fs::remove_all(root_); }

    void add_cache(std::uint32_t cpu, std::uint32_t index,
                   const std::string& type, const std::string& list) {
        const fs::path base = root_ / ("cpu" + std::to_string(cpu)) /
                              "cache" / ("index" + std::to_string(index));
        fs::create_directories(base);
        std::ofstream(base / "type") << type << "\n";
        std::ofstream(base / "shared_cpu_list") << list << "\n";
    }

    [[nodiscard]] std::string path() const { return root_.string(); }

private:
    fs::path root_;
};

TEST(TopologyDiscover, GroupsCpusByLastLevelCacheSharing) {
    FakeSysfs sys("rwr_fake_sysfs_llc");
    for (std::uint32_t cpu = 0; cpu < 4; ++cpu) {
        // Private L1 per cpu, split LLC: {0,1} vs {2,3}.
        sys.add_cache(cpu, 0, "Data", std::to_string(cpu));
        sys.add_cache(cpu, 1, "Unified", cpu < 2 ? "0-1" : "2-3");
    }
    const topo::CacheTopology t = topo::discover_sysfs(sys.path());
    EXPECT_EQ(t.num_domains, 2u);
    EXPECT_EQ(t.domain_of(0), 0u);
    EXPECT_EQ(t.domain_of(1), 0u);
    EXPECT_EQ(t.domain_of(2), 1u);
    EXPECT_EQ(t.domain_of(3), 1u);
    // Out-of-range cpus (and sched_getcpu failure, cpu = -1) map to 0.
    EXPECT_EQ(t.domain_of(99), 0u);
    EXPECT_EQ(t.domain_of(-1), 0u);
}

TEST(TopologyDiscover, DeepestCacheLevelDefinesTheDomain) {
    FakeSysfs sys("rwr_fake_sysfs_l3");
    for (std::uint32_t cpu = 0; cpu < 4; ++cpu) {
        // Private L1d, L1i and L2 per cpu under one L3 shared by all four:
        // one domain, although every shallower level is per-cpu.
        const std::string own = std::to_string(cpu);
        sys.add_cache(cpu, 0, "Data", own);
        sys.add_cache(cpu, 1, "Instruction", own);
        sys.add_cache(cpu, 2, "Unified", own);
        sys.add_cache(cpu, 3, "Unified", "0-3");
    }
    const topo::CacheTopology t = topo::discover_sysfs(sys.path());
    EXPECT_EQ(t.num_domains, 1u);
    ASSERT_EQ(t.domain_of_cpu.size(), 4u);
    for (std::uint32_t cpu = 0; cpu < 4; ++cpu) {
        EXPECT_EQ(t.domain_of(cpu), 0u);
    }
}

TEST(TopologyDiscover, InterleavedCpuNumberingKeepsDomainsApart) {
    FakeSysfs sys("rwr_fake_sysfs_interleaved");
    for (std::uint32_t cpu = 0; cpu < 4; ++cpu) {
        // Two LLCs with interleaved numbering (even cpus on one, odd on the
        // other). Domain ids follow the order in which each LLC first
        // appears.
        sys.add_cache(cpu, 0, "Unified", cpu % 2 == 0 ? "0,2" : "1,3");
    }
    const topo::CacheTopology t = topo::discover_sysfs(sys.path());
    EXPECT_EQ(t.num_domains, 2u);
    EXPECT_EQ(t.domain_of(0), 0u);
    EXPECT_EQ(t.domain_of(1), 1u);
    EXPECT_EQ(t.domain_of(2), 0u);
    EXPECT_EQ(t.domain_of(3), 1u);
}

TEST(TopologyDiscover, InstructionCachesAreIgnored) {
    FakeSysfs sys("rwr_fake_sysfs_icache");
    for (std::uint32_t cpu = 0; cpu < 2; ++cpu) {
        // The I-cache claims everything is shared; the data LLC is split.
        // If discovery wrongly honoured index1 (Instruction), both cpus
        // would collapse into one domain.
        sys.add_cache(cpu, 0, "Data", std::to_string(cpu));
        sys.add_cache(cpu, 1, "Instruction", "0-1");
    }
    const topo::CacheTopology t = topo::discover_sysfs(sys.path());
    EXPECT_EQ(t.num_domains, 2u);
    EXPECT_NE(t.domain_of(0), t.domain_of(1));
}

TEST(TopologyDiscover, UnparsableSharedListFallsBack) {
    FakeSysfs sys("rwr_fake_sysfs_bad");
    sys.add_cache(0, 0, "Unified", "not-a-cpulist");
    const topo::CacheTopology t = topo::discover_sysfs(sys.path());
    EXPECT_EQ(t.num_domains, 1u);
}

TEST(TopologyQuery, SystemTopologyMapsEveryCpuIntoRange) {
    const topo::CacheTopology& sys = topo::system_topology();
    ASSERT_GE(sys.num_domains, 1u);
    for (std::size_t cpu = 0; cpu < sys.domain_of_cpu.size(); ++cpu) {
        EXPECT_LT(sys.domain_of(static_cast<long>(cpu)), sys.num_domains);
    }
}

}  // namespace
