// Native loopback backend: the client/server plumbing under lock_serviced.
//
// The daemon owns the table's words in a POSIX shared-memory segment and
// serves a tiny fixed-size control protocol on a loopback TCP socket:
// HELLO hands a client the table geometry and the segment name, STATS
// returns daemon-side aggregates read from the live words (bench_dist's
// loopback cells cross-check them against client-side counts -- real
// evidence the two mappings share the words), SHUTDOWN stops the daemon.
// The data path never touches the socket: clients mmap the segment and run
// NativeTable verbs directly on it, the loopback stand-in for one-sided
// RDMA on a remote NIC.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "dist/layout.hpp"
#include "dist/verbs.hpp"

namespace rwr::dist {

/// Owner-or-attacher view of one POSIX shm segment of 64-bit words.
/// The creator unlinks the name on destruction; attachers just unmap.
class ShmSegment {
   public:
    ShmSegment() = default;
    ShmSegment(ShmSegment&& o) noexcept { *this = std::move(o); }
    ShmSegment& operator=(ShmSegment&& o) noexcept;
    ShmSegment(const ShmSegment&) = delete;
    ShmSegment& operator=(const ShmSegment&) = delete;
    ~ShmSegment() { reset(); }

    /// Creates (O_CREAT | O_EXCL) a zero-filled segment of `words` words.
    /// Throws std::runtime_error on any syscall failure.
    static ShmSegment create(const std::string& name, std::uint64_t words);
    /// Creates a segment named `prefix` followed by the next number of a
    /// process-wide counter. A name that already exists is skipped, not
    /// unlinked (it is not this segment's); throws std::runtime_error
    /// after 64 taken names in a row or on any other failure.
    static ShmSegment create_numbered(const std::string& prefix,
                                      std::uint64_t words);
    /// Attaches to an existing segment created by `create`.
    static ShmSegment attach(const std::string& name, std::uint64_t words);

    [[nodiscard]] std::atomic<Word>* data() const { return words_; }
    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] bool valid() const { return words_ != nullptr; }

    void reset();

   private:
    /// Maps the segment open on `fd` and closes `fd`; `create` makes this
    /// the owner, which sizes the segment first and unlinks it on failure.
    static ShmSegment map_segment(const std::string& name,
                                  std::uint64_t words, int fd, bool create);

    std::string name_;
    std::atomic<Word>* words_ = nullptr;
    std::uint64_t size_words_ = 0;
    bool owner_ = false;
};

// ---- Control protocol -----------------------------------------------------

inline constexpr std::uint32_t kCtrlMagic = 0x52575244;  // "RWRD"
inline constexpr std::uint32_t kCtrlVersion = 1;
inline constexpr std::size_t kShmNameMax = 64;

enum class CtrlOp : std::uint32_t { Hello = 1, Stats = 2, Shutdown = 3 };

struct CtrlRequest {
    std::uint32_t magic = kCtrlMagic;
    std::uint32_t version = kCtrlVersion;
    std::uint32_t op = 0;
    std::uint32_t pad = 0;
};
static_assert(sizeof(CtrlRequest) == 16);

struct CtrlReply {
    std::uint32_t magic = kCtrlMagic;
    std::uint32_t ok = 0;
    // HELLO payload: table geometry + segment name.
    std::uint32_t shards = 0;
    std::uint32_t locks_per_shard = 0;
    std::uint32_t sessions = 0;
    std::uint32_t homed = 0;
    std::uint64_t total_words = 0;
    char shm_name[kShmNameMax] = {};
    // STATS payload: aggregates read from the live table words.
    std::uint64_t tickets_issued = 0;    ///< Sum of WTicket over all locks.
    std::uint64_t witness_nonzero = 0;   ///< Locks currently writer-held.
    std::uint64_t readers_active = 0;    ///< Sum of RCount over all locks.
};

/// The lock service daemon: creates the segment, zero-initialises the
/// table, and serves control connections on 127.0.0.1:<port> (port 0 =
/// ephemeral; the bound port is readable after start()). One thread serves
/// the listener and every connection. Its sockets are non-blocking and it
/// waits only in poll(), so a client that keeps its connection open
/// (DistClient does, for STATS and SHUTDOWN) holds up neither another
/// client's HELLO nor stop(); stop() closes the connections still open.
class LockServiceDaemon {
   public:
    explicit LockServiceDaemon(const TableConfig& cfg,
                               std::uint16_t port = 0);
    ~LockServiceDaemon();

    void start();
    void stop();
    [[nodiscard]] bool running() const { return running_.load(); }
    [[nodiscard]] std::uint16_t port() const { return port_; }
    [[nodiscard]] const std::string& shm_name() const {
        return shm_.name();
    }
    [[nodiscard]] const TableLayout& layout() const { return lay_; }
    /// Daemon-side mapping (tests peek at words through it).
    [[nodiscard]] std::atomic<Word>* words() const { return shm_.data(); }

    /// The STATS aggregates, computed from the live words.
    [[nodiscard]] CtrlReply stats() const;

   private:
    /// A control connection: its socket and the part of a request read
    /// from it so far.
    struct Connection {
        int fd = -1;
        CtrlRequest req;
        std::size_t got = 0;
    };

    void serve_loop();
    /// Reads what `c` has sent and answers each whole request. Returns
    /// false once the connection is finished: the peer closed or broke it,
    /// sent a malformed request or SHUTDOWN, or left its replies unread.
    bool serve_ready(Connection& c);
    [[nodiscard]] CtrlReply answer(CtrlOp op) const;

    TableLayout lay_;
    ShmSegment shm_;
    std::uint16_t port_;
    // Atomic: stop() shuts the listener down from another thread while
    // serve_loop() waits in poll() on it.
    std::atomic<int> listen_fd_{-1};
    std::thread server_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
};

/// Client side: one control connection + the attached segment. The data
/// path (NativeTable) runs on words() directly.
class DistClient {
   public:
    DistClient() = default;
    ~DistClient() { close(); }
    DistClient(const DistClient&) = delete;
    DistClient& operator=(const DistClient&) = delete;

    /// Connects, HELLOs, and attaches the advertised segment. Throws
    /// std::runtime_error on failure, also when the reply's segment size
    /// does not match its geometry or its name is unterminated, and
    /// std::invalid_argument on an empty geometry (TableLayout).
    void connect(const std::string& host, std::uint16_t port);
    void close();

    [[nodiscard]] const TableConfig& config() const { return cfg_; }
    [[nodiscard]] std::atomic<Word>* words() const { return shm_.data(); }

    /// Round-trips a STATS request on the control connection.
    [[nodiscard]] CtrlReply stats();
    /// Asks the daemon to shut down.
    void shutdown_server();

   private:
    CtrlReply roundtrip(CtrlOp op);

    int fd_ = -1;
    TableConfig cfg_;
    ShmSegment shm_;
};

}  // namespace rwr::dist
