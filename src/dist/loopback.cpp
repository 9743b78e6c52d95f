#include "dist/loopback.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace rwr::dist {

namespace {

[[noreturn]] void die(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// die() for a call that failed on `fd`: closes it first, keeping errno.
[[noreturn]] void close_and_die(int fd, const std::string& what) {
    const int err = errno;
    ::close(fd);
    errno = err;
    die(what);
}

/// MSG_NOSIGNAL: a peer that has closed its end fails the write with
/// EPIPE instead of killing this process with SIGPIPE.
void write_all(int fd, const void* buf, std::size_t len) {
    const char* p = static_cast<const char*>(buf);
    while (len > 0) {
        const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            die("write");
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
}

/// Returns false on clean EOF at a message boundary.
bool read_all(int fd, void* buf, std::size_t len) {
    char* p = static_cast<char*>(buf);
    std::size_t got = 0;
    while (got < len) {
        const ssize_t n = ::read(fd, p + got, len - got);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            die("read");
        }
        if (n == 0) {
            if (got == 0) {
                return false;
            }
            throw std::runtime_error("short control message");
        }
        got += static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace

// ---- ShmSegment -----------------------------------------------------------

ShmSegment& ShmSegment::operator=(ShmSegment&& o) noexcept {
    if (this != &o) {
        reset();
        name_ = std::move(o.name_);
        words_ = o.words_;
        size_words_ = o.size_words_;
        owner_ = o.owner_;
        o.words_ = nullptr;
        o.size_words_ = 0;
        o.owner_ = false;
        o.name_.clear();
    }
    return *this;
}

void ShmSegment::reset() {
    if (words_ != nullptr) {
        ::munmap(words_, size_words_ * sizeof(Word));
        words_ = nullptr;
    }
    if (owner_ && !name_.empty()) {
        ::shm_unlink(name_.c_str());
    }
    owner_ = false;
    size_words_ = 0;
    name_.clear();
}

ShmSegment ShmSegment::create(const std::string& name, std::uint64_t words) {
    const int fd = ::shm_open(name.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
    if (fd < 0) {
        die("shm_open(" + name + ")");
    }
    return map_segment(name, words, fd, true);
}

ShmSegment ShmSegment::create_numbered(const std::string& prefix,
                                       std::uint64_t words) {
    constexpr int kMaxTries = 64;
    static std::atomic<std::uint64_t> next_number{0};
    for (int tries = 0; tries < kMaxTries; ++tries) {
        const std::string name = prefix + std::to_string(next_number++);
        const int fd =
            ::shm_open(name.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
        if (fd >= 0) {
            return map_segment(name, words, fd, true);
        }
        if (errno != EEXIST) {
            die("shm_open(" + name + ")");
        }
    }
    throw std::runtime_error("shm_open(" + prefix + "*): " +
                             std::to_string(kMaxTries) +
                             " names in a row already exist");
}

ShmSegment ShmSegment::attach(const std::string& name, std::uint64_t words) {
    const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
    if (fd < 0) {
        die("shm_open(" + name + ")");
    }
    return map_segment(name, words, fd, false);
}

ShmSegment ShmSegment::map_segment(const std::string& name,
                                   std::uint64_t words, int fd, bool create) {
    const std::size_t bytes = words * sizeof(Word);
    if (create && ::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
        ::close(fd);
        ::shm_unlink(name.c_str());
        die("ftruncate(" + name + ")");
    }
    void* mem =
        ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    if (mem == MAP_FAILED) {
        if (create) {
            ::shm_unlink(name.c_str());
        }
        die("mmap(" + name + ")");
    }
    // Reinterpreting the zero-filled mapping as atomics is valid: the
    // std::atomic<Word> representation is the plain 8-byte word (checked),
    // and ftruncate guarantees zero initial contents.
    static_assert(sizeof(std::atomic<Word>) == sizeof(Word) &&
                      std::atomic<Word>::is_always_lock_free,
                  "shared segment needs plain lock-free 64-bit atomics");
    ShmSegment seg;
    seg.name_ = name;
    seg.words_ = static_cast<std::atomic<Word>*>(mem);
    seg.size_words_ = words;
    seg.owner_ = create;
    return seg;
}

// ---- LockServiceDaemon ----------------------------------------------------

LockServiceDaemon::LockServiceDaemon(const TableConfig& cfg,
                                     std::uint16_t port)
    : lay_(cfg), port_(port) {}

LockServiceDaemon::~LockServiceDaemon() { stop(); }

void LockServiceDaemon::start() {
    // The number keeps two live daemons of one process apart; skipping a
    // taken name steps over segments that killed runs left behind under a
    // pid that has come back.
    shm_ = ShmSegment::create_numbered(
        "/rwr_dist." + std::to_string(::getpid()) + ".", lay_.total_words());

    const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (lfd < 0) {
        die("socket");
    }
    const int one = 1;
    ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        close_and_die(lfd, "bind");
    }
    socklen_t alen = sizeof(addr);
    if (::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen) != 0) {
        close_and_die(lfd, "getsockname");
    }
    port_ = ntohs(addr.sin_port);
    if (::listen(lfd, 64) != 0) {
        close_and_die(lfd, "listen");
    }
    listen_fd_.store(lfd);
    stopping_.store(false);
    running_.store(true);
    server_ = std::thread([this] { serve_loop(); });
}

void LockServiceDaemon::stop() {
    if (!running_.load() && !server_.joinable()) {
        return;
    }
    stopping_.store(true);
    const int lfd = listen_fd_.load();
    if (lfd >= 0) {
        // Shutdown wakes serve_loop's poll() and fails its accept(); close
        // only after the join so the fd number cannot be recycled under
        // serve_loop's feet.
        ::shutdown(lfd, SHUT_RDWR);
    }
    if (server_.joinable()) {
        server_.join();
    }
    if (lfd >= 0) {
        ::close(lfd);
        listen_fd_.store(-1);
    }
    running_.store(false);
    shm_.reset();
}

void LockServiceDaemon::serve_loop() {
    const int lfd = listen_fd_.load();
    std::vector<Connection> conns;
    std::vector<pollfd> fds;
    while (!stopping_.load()) {
        fds.assign(1, pollfd{lfd, POLLIN, 0});
        for (const Connection& c : conns) {
            fds.push_back(pollfd{c.fd, POLLIN, 0});
        }
        if (::poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;
        }
        for (std::size_t i = conns.size(); i-- > 0;) {
            if (fds[i + 1].revents != 0 && !serve_ready(conns[i])) {
                ::close(conns[i].fd);
                conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
            }
        }
        if (fds[0].revents != 0) {
            const int fd = ::accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK);
            if (fd >= 0) {
                conns.emplace_back().fd = fd;
            } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR && errno != ECONNABORTED) {
                break;  // Listener shut down by stop().
            }
        }
    }
    for (const Connection& c : conns) {
        ::close(c.fd);
    }
    running_.store(false);
}

bool LockServiceDaemon::serve_ready(Connection& c) {
    auto* const buf = reinterpret_cast<char*>(&c.req);
    for (;;) {
        const ssize_t n =
            ::recv(c.fd, buf + c.got, sizeof(c.req) - c.got, 0);
        if (n <= 0) {
            // Nothing more to read for now, or the peer is gone.
            return n < 0 &&
                   (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
        }
        c.got += static_cast<std::size_t>(n);
        if (c.got < sizeof(c.req)) {
            continue;
        }
        c.got = 0;
        const bool valid =
            c.req.magic == kCtrlMagic && c.req.version == kCtrlVersion;
        const auto op = static_cast<CtrlOp>(c.req.op);
        const CtrlReply rep = valid ? answer(op) : CtrlReply{};
        // A reply is far smaller than the socket's send buffer, so a short
        // send means a client that has left many replies unread.
        if (::send(c.fd, &rep, sizeof(rep), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(sizeof(rep))) {
            return false;
        }
        if (!valid) {
            return false;
        }
        if (op == CtrlOp::Shutdown) {
            stopping_.store(true);
            // Refuse new connections now; stop() closes the listener.
            ::shutdown(listen_fd_.load(), SHUT_RDWR);
            return false;
        }
    }
}

CtrlReply LockServiceDaemon::answer(CtrlOp op) const {
    CtrlReply rep;
    switch (op) {
        case CtrlOp::Hello: {
            const TableConfig& cfg = lay_.config();
            rep.ok = 1;
            rep.shards = cfg.shards;
            rep.locks_per_shard = cfg.locks_per_shard;
            rep.sessions = cfg.sessions;
            rep.homed = cfg.homed ? 1 : 0;
            rep.total_words = lay_.total_words();
            std::strncpy(rep.shm_name, shm_.name().c_str(), kShmNameMax - 1);
            break;
        }
        case CtrlOp::Stats:
            rep = stats();
            rep.ok = 1;
            break;
        case CtrlOp::Shutdown:
            rep.ok = 1;
            break;
        default:
            rep.ok = 0;
            break;
    }
    return rep;
}

CtrlReply LockServiceDaemon::stats() const {
    CtrlReply rep;
    const TableConfig& cfg = lay_.config();
    std::atomic<Word>* w = shm_.data();
    for (std::uint32_t lock = 0; lock < cfg.num_locks(); ++lock) {
        rep.tickets_issued +=
            w[lay_.flat_index(lay_.lock_word(lock, LockField::WTicket))]
                .load();
        rep.witness_nonzero +=
            w[lay_.flat_index(lay_.lock_word(lock, LockField::WWitness))]
                        .load() != 0
                ? 1
                : 0;
        rep.readers_active +=
            w[lay_.flat_index(lay_.lock_word(lock, LockField::RCount))]
                .load();
    }
    return rep;
}

// ---- DistClient -----------------------------------------------------------

void DistClient::connect(const std::string& host, std::uint16_t port) {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        die("socket");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        throw std::runtime_error("bad host: " + host);
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        die("connect");
    }
    const CtrlReply hello = roundtrip(CtrlOp::Hello);
    if (hello.ok != 1) {
        throw std::runtime_error("HELLO rejected");
    }
    TableConfig cfg;
    cfg.shards = hello.shards;
    cfg.locks_per_shard = hello.locks_per_shard;
    cfg.sessions = hello.sessions;
    cfg.homed = hello.homed != 0;
    // Trust nothing the reply says: a table indexes every word its layout
    // names, so the segment must hold exactly that many.
    const TableLayout lay(cfg);
    if (hello.total_words != lay.total_words()) {
        throw std::runtime_error(
            "HELLO: segment of " + std::to_string(hello.total_words) +
            " words, table needs " + std::to_string(lay.total_words()));
    }
    if (std::memchr(hello.shm_name, '\0', kShmNameMax) == nullptr) {
        throw std::runtime_error("HELLO: unterminated segment name");
    }
    shm_ = ShmSegment::attach(hello.shm_name, hello.total_words);
    cfg_ = cfg;
}

void DistClient::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    shm_.reset();
}

CtrlReply DistClient::roundtrip(CtrlOp op) {
    CtrlRequest req;
    req.op = static_cast<std::uint32_t>(op);
    write_all(fd_, &req, sizeof(req));
    CtrlReply rep;
    if (!read_all(fd_, &rep, sizeof(rep)) || rep.magic != kCtrlMagic) {
        throw std::runtime_error("control channel closed");
    }
    return rep;
}

CtrlReply DistClient::stats() { return roundtrip(CtrlOp::Stats); }

void DistClient::shutdown_server() { (void)roundtrip(CtrlOp::Shutdown); }

}  // namespace rwr::dist
