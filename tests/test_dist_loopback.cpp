// Native loopback backend: daemon lifecycle, control-channel round-trips,
// real cross-mapping shm visibility, and concurrent load on the native
// table (TSan-sized cells -- this suite runs in the TSan CI job, so the
// seq_cst atomics of NativeTable and the ParkingSpot handshakes get a race
// detector pass).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>

#include "dist/load.hpp"
#include "dist/loopback.hpp"
#include "dist/native_table.hpp"

namespace rwr::dist {
namespace {

TableConfig tiny_cfg(bool homed) {
    TableConfig cfg;
    cfg.shards = 2;
    cfg.locks_per_shard = 2;
    cfg.sessions = 16;
    cfg.homed = homed;
    return cfg;
}

TEST(DistLoopback, HelloAdvertisesGeometryAndSegment) {
    LockServiceDaemon daemon(tiny_cfg(true));
    daemon.start();
    DistClient client;
    client.connect("127.0.0.1", daemon.port());
    EXPECT_EQ(client.config().shards, 2u);
    EXPECT_EQ(client.config().locks_per_shard, 2u);
    EXPECT_EQ(client.config().sessions, 16u);
    EXPECT_TRUE(client.config().homed);
    ASSERT_NE(client.words(), nullptr);
    client.close();
    daemon.stop();
}

TEST(DistLoopback, ClientAndDaemonShareTheWords) {
    // A store through the client's mapping must be visible through the
    // daemon's -- the property the smoke harness's STATS cross-check
    // relies on.
    LockServiceDaemon daemon(tiny_cfg(true));
    daemon.start();
    DistClient client;
    client.connect("127.0.0.1", daemon.port());
    const TableLayout& lay = daemon.layout();
    const auto idx = lay.flat_index(lay.lock_word(3, LockField::WTicket));
    client.words()[idx].store(77);
    EXPECT_EQ(daemon.words()[idx].load(), 77u);
    const CtrlReply st = client.stats();
    EXPECT_EQ(st.ok, 1u);
    EXPECT_EQ(st.tickets_issued, 77u);
    client.words()[idx].store(0);
    client.close();
    daemon.stop();
}

TEST(DistLoopback, ShutdownStopsTheDaemon) {
    LockServiceDaemon daemon(tiny_cfg(true));
    daemon.start();
    EXPECT_TRUE(daemon.running());
    DistClient client;
    client.connect("127.0.0.1", daemon.port());
    client.shutdown_server();
    client.close();
    daemon.stop();  // Joins; must not hang after remote shutdown.
    EXPECT_FALSE(daemon.running());
}

/// How long a test waits for a daemon call that must not block. Far above
/// what the call takes (milliseconds), so only a blocked call runs out.
constexpr auto kBoundedWait = std::chrono::seconds(10);

TEST(DistLoopback, TwoConnectedClientsAreBothServed) {
    // A DistClient keeps its control connection open. A daemon that served
    // one connection at a time would leave the second HELLO unanswered
    // until the first client closed.
    LockServiceDaemon daemon(tiny_cfg(true));
    daemon.start();
    DistClient a;
    a.connect("127.0.0.1", daemon.port());
    DistClient b;
    auto second = std::async(std::launch::async, [&] {
        b.connect("127.0.0.1", daemon.port());
        return b.stats();
    });
    const bool served =
        second.wait_for(kBoundedWait) == std::future_status::ready;
    EXPECT_TRUE(served) << "no HELLO for a second client while one is "
                           "connected";
    if (!served) {
        a.close();  // Lets a one-connection-at-a-time daemon answer b.
    }
    EXPECT_EQ(second.get().ok, 1u);
    EXPECT_EQ(b.config().sessions, 16u);
    if (served) {
        EXPECT_EQ(a.stats().ok, 1u);
    }
    b.close();
    a.close();
    daemon.stop();
}

TEST(DistLoopback, StopReturnsWhileAClientIsConnected) {
    // A daemon destroyed before its client must not wait for the client
    // to hang up: stop() closes the open connection, and the client's next
    // request fails instead of blocking.
    LockServiceDaemon daemon(tiny_cfg(true));
    daemon.start();
    DistClient client;
    client.connect("127.0.0.1", daemon.port());
    auto stopped = std::async(std::launch::async, [&] { daemon.stop(); });
    const bool returned =
        stopped.wait_for(kBoundedWait) == std::future_status::ready;
    EXPECT_TRUE(returned) << "stop() blocked on a connected client";
    if (!returned) {
        client.close();  // Lets a daemon that waits for its client stop.
    }
    stopped.get();
    EXPECT_FALSE(daemon.running());
    EXPECT_THROW((void)client.stats(), std::runtime_error);
}

TEST(DistLoopback, SecondDaemonGetsItsOwnPortAndSegment) {
    LockServiceDaemon a(tiny_cfg(true));
    LockServiceDaemon b(tiny_cfg(true));
    a.start();
    b.start();
    EXPECT_NE(a.port(), b.port());
    EXPECT_NE(a.shm_name(), b.shm_name());
    b.stop();
    a.stop();
}

/// Connects to `d` and checks that it answers HELLO with its geometry.
void expect_hello(const LockServiceDaemon& d) {
    DistClient client;
    client.connect("127.0.0.1", d.port());
    EXPECT_EQ(client.config().shards, d.layout().config().shards);
    EXPECT_NE(client.words(), nullptr);
    client.close();
}

TEST(DistLoopback, DaemonsWhoseAddressesAgreeInTheLow16BitsBothStart) {
    // Two live daemons 64 KiB apart: a segment name derived from the
    // daemon's address modulo 2^16 would be the same for both, and the
    // second start() would fail on O_EXCL.
    constexpr std::size_t kApart = std::size_t{1} << 16;
    static_assert(alignof(LockServiceDaemon) <= alignof(std::max_align_t));
    const auto buf = std::make_unique<std::max_align_t[]>(
        (kApart + sizeof(LockServiceDaemon)) / sizeof(std::max_align_t) + 1);
    auto* const base = reinterpret_cast<unsigned char*>(buf.get());
    struct Placed {
        LockServiceDaemon* d;
        ~Placed() { d->~LockServiceDaemon(); }
    };
    const Placed a{new (base) LockServiceDaemon(tiny_cfg(true))};
    const Placed b{new (base + kApart) LockServiceDaemon(tiny_cfg(true))};
    ASSERT_EQ((reinterpret_cast<std::uintptr_t>(a.d) ^
               reinterpret_cast<std::uintptr_t>(b.d)) & 0xFFFF,
              0u);
    a.d->start();
    b.d->start();
    EXPECT_NE(a.d->shm_name(), b.d->shm_name());
    expect_hello(*a.d);
    expect_hello(*b.d);
}

TEST(DistLoopback, StartSkipsASegmentNameThatExists) {
    // A segment under the next name in line, as a killed run whose pid
    // came back would leave it: start() takes the name after it and
    // leaves the segment alone.
    LockServiceDaemon first(tiny_cfg(true));
    first.start();
    const std::string& name = first.shm_name();
    const std::size_t dot = name.rfind('.');
    ASSERT_NE(dot, std::string::npos);
    const std::string prefix = name.substr(0, dot + 1);
    const std::uint64_t k = std::stoull(name.substr(dot + 1));
    const ShmSegment stale =
        ShmSegment::create(prefix + std::to_string(k + 1), 1);
    LockServiceDaemon second(tiny_cfg(true));
    second.start();
    EXPECT_EQ(second.shm_name(), prefix + std::to_string(k + 2));
    expect_hello(second);
    second.stop();
    EXPECT_NO_THROW(ShmSegment::attach(stale.name(), 1));
    first.stop();
}

/// A control server that answers one HELLO with a canned reply, as a
/// daemon that lies about its table would.
class FakeDaemon {
   public:
    explicit FakeDaemon(const CtrlReply& reply) {
        lfd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        socklen_t len = sizeof(addr);
        auto* sa = reinterpret_cast<sockaddr*>(&addr);
        if (lfd_ < 0 || ::bind(lfd_, sa, sizeof(addr)) != 0 ||
            ::getsockname(lfd_, sa, &len) != 0 || ::listen(lfd_, 1) != 0) {
            if (lfd_ >= 0) {
                ::close(lfd_);
            }
            throw std::runtime_error("fake daemon: no listener");
        }
        port_ = ntohs(addr.sin_port);
        server_ = std::thread([this, reply] {
            const int fd = ::accept(lfd_, nullptr, nullptr);
            if (fd < 0) {
                return;
            }
            CtrlRequest req;
            const ssize_t got = ::read(fd, &req, sizeof(req));
            if (got == static_cast<ssize_t>(sizeof(req))) {
                // A short write fails connect() on a short reply instead.
                const ssize_t sent = ::write(fd, &reply, sizeof(reply));
                (void)sent;
            }
            ::close(fd);
        });
    }
    FakeDaemon(const FakeDaemon&) = delete;
    FakeDaemon& operator=(const FakeDaemon&) = delete;
    ~FakeDaemon() {
        ::shutdown(lfd_, SHUT_RDWR);  // Unblocks an accept() never served.
        server_.join();
        ::close(lfd_);
    }
    [[nodiscard]] std::uint16_t port() const { return port_; }

   private:
    int lfd_ = -1;
    std::uint16_t port_ = 0;
    std::thread server_;
};

/// A HELLO for a 2-shard x 2-lock, 4-session table (76 words).
CtrlReply hello_reply(const std::string& shm_name,
                      std::uint64_t total_words) {
    CtrlReply rep;
    rep.ok = 1;
    rep.shards = 2;
    rep.locks_per_shard = 2;
    rep.sessions = 4;
    rep.homed = 1;
    rep.total_words = total_words;
    // Up to all kShmNameMax bytes: a name that long keeps no NUL.
    std::memcpy(rep.shm_name, shm_name.data(),
                std::min(shm_name.size(), kShmNameMax));
    return rep;
}

TEST(DistLoopback, ConnectRejectsAHelloThatDoesNotMatchItsTable) {
    const std::string prefix =
        "/rwr_fake." + std::to_string(::getpid()) + ".";
    const std::uint64_t words = TableLayout({2, 2, 4}).total_words();
    ASSERT_EQ(words, 76u);
    DistClient client;
    {
        // A real segment, but of 1 word: a table on it would index past
        // the mapping.
        const ShmSegment small = ShmSegment::create(prefix + "small", 1);
        FakeDaemon fake(hello_reply(small.name(), 1));
        EXPECT_THROW(client.connect("127.0.0.1", fake.port()),
                     std::runtime_error);
    }
    {
        // A segment of the right size whose name fills shm_name with no
        // terminating NUL.
        std::string name = prefix + "unterminated";
        name.resize(kShmNameMax, 'n');
        const ShmSegment seg = ShmSegment::create(name, words);
        FakeDaemon fake(hello_reply(name, words));
        EXPECT_THROW(client.connect("127.0.0.1", fake.port()),
                     std::runtime_error);
    }
    {
        // An empty geometry never reaches a table.
        CtrlReply rep = hello_reply("/none", 0);
        rep.shards = 0;
        FakeDaemon fake(rep);
        EXPECT_THROW(client.connect("127.0.0.1", fake.port()),
                     std::invalid_argument);
    }
    EXPECT_EQ(client.words(), nullptr);
}

void run_concurrent_load(bool homed) {
    LockServiceDaemon daemon(tiny_cfg(homed));
    daemon.start();
    DistClient client;
    client.connect("127.0.0.1", daemon.port());
    auto spots = std::make_unique<native::ParkingSpot[]>(
        client.config().sessions);
    NativeTable table(client.words(), client.config(), spots.get());
    LoadConfig lc;
    lc.ops_per_session = 64;
    lc.reader_pct = 60;
    lc.seed = 3;
    lc.jobs = 4;
    const LoadResult res = run_load(table, lc);
    EXPECT_EQ(res.witness_violations, 0u);
    EXPECT_EQ(res.merged.total_ops(), 16u * 64u);
    // Quiesced: no held writers, no active readers, and the daemon's
    // ticket odometer agrees with the client's writer-op count.
    const CtrlReply st = client.stats();
    EXPECT_EQ(st.tickets_issued, res.merged.write_ops);
    EXPECT_EQ(st.witness_nonzero, 0u);
    EXPECT_EQ(st.readers_active, 0u);
    // Only homed sessions get free local gate spins; either way every
    // shard verb was counted.
    EXPECT_GT(res.merged.network_rmrs, 0u);
    client.close();
    daemon.stop();
}

TEST(DistLoopback, ConcurrentLoadHomed) { run_concurrent_load(true); }
TEST(DistLoopback, ConcurrentLoadUnhomed) { run_concurrent_load(false); }

TEST(DistLoopback, LatencyHistogramQuantilesAreOrdered) {
    SessionStats st;
    st.record_acquire_ns(100);
    st.record_acquire_ns(1000);
    st.record_acquire_ns(100000);
    const double p50 = st.percentile_us(0.50);
    const double p99 = st.percentile_us(0.99);
    EXPECT_GT(p50, 0.0);
    EXPECT_GE(p99, p50);
}

TEST(DistLoopback, LatencyHistogramEndsHoldTheEndsOfTheRange) {
    SessionStats st;
    st.record_acquire_ns(0);
    st.record_acquire_ns(1);
    st.record_acquire_ns(std::uint64_t{1} << 63);
    st.record_acquire_ns(~std::uint64_t{0});
    EXPECT_EQ(st.acquire_ns_log2[0], 2u);
    EXPECT_EQ(st.acquire_ns_log2[kLatBuckets - 1], 2u);
    EXPECT_EQ(st.acquire_ns_log2[kLatBuckets - 2], 0u);
    // Quantiles report bucket upper bounds: 2 ns and 2^64 ns.
    EXPECT_DOUBLE_EQ(st.percentile_us(0.0), 0.002);
    EXPECT_DOUBLE_EQ(st.percentile_us(1.0), std::ldexp(1.0, 64) / 1000.0);
}

}  // namespace
}  // namespace rwr::dist
