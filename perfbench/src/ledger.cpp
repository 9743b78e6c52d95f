#include "ledger.hpp"

#include <cctype>

#include "trace.hpp"

namespace perfbench {

Component classify(std::string_view name) {
    constexpr std::string_view kAf = "af.";
    if (name.substr(0, kAf.size()) != kAf) {
        return Component::Other;
    }
    const std::string_view rest = name.substr(kAf.size());
    const auto starts = [&](std::string_view p) {
        return rest.substr(0, p.size()) == p;
    };
    // C<i> and W<i> are the counters; the digit tells W<i> from WL/WSIG/WSEQ.
    if (rest.size() >= 2 && (rest[0] == 'C' || rest[0] == 'W') &&
        std::isdigit(static_cast<unsigned char>(rest[1])) != 0) {
        return Component::Counter;
    }
    if (starts("RSIG") || starts("RGATE")) {
        return Component::Rsig;
    }
    if (starts("WSIG") || starts("WSEQ")) {
        return Component::Wsig;
    }
    if (starts("WL")) {
        return Component::Wl;
    }
    return Component::Other;
}

ComponentLedger::ComponentLedger(const rwr::Memory& mem) {
    comp_of_var_.reserve(mem.num_variables());
    for (std::uint32_t v = 0; v < mem.num_variables(); ++v) {
        comp_of_var_.push_back(classify(mem.name(rwr::VarId{v})));
    }
}

void ComponentLedger::on_step(const rwr::sim::System& /*sys*/,
                              const rwr::sim::Process& p, const rwr::Op& op,
                              const rwr::OpResult& res) {
    mem_ops_ += op.touches_memory() ? 1 : 0;
    if (!res.rmr) {
        return;
    }
    ++rmr_steps_;
    const Component c = op.var.index < comp_of_var_.size()
                            ? comp_of_var_[op.var.index]
                            : Component::Other;
    ++rmrs_[p.is_reader() ? 0 : 1][static_cast<std::size_t>(c)];
}

std::uint64_t ComponentLedger::total_rmrs() const {
    std::uint64_t total = 0;
    for (const auto& role : rmrs_) {
        for (const auto v : role) {
            total += v;
        }
    }
    return total;
}

void OpRecorder::on_step(const rwr::sim::System& /*sys*/,
                         const rwr::sim::Process& p, const rwr::Op& op,
                         const rwr::OpResult& res) {
    if (!op.touches_memory() || ops_.size() >= cap_) {
        return;
    }
    ops_.push_back({p.id(), op});
    rmrs_ += res.rmr ? 1 : 0;
}

VarImage snapshot_vars(const rwr::Memory& mem) {
    VarImage img;
    img.protocol = mem.protocol();
    for (std::uint32_t i = 0; i < mem.num_variables(); ++i) {
        const rwr::VarId v{i};
        img.names.push_back(mem.name(v));
        img.initial.push_back(mem.peek(v));
        img.owners.push_back(mem.owner(v));
    }
    return img;
}

ReplayResult replay(const VarImage& image,
                    const std::vector<OpRecorder::Entry>& ops) {
    rwr::Memory mem(image.protocol);
    for (std::size_t i = 0; i < image.names.size(); ++i) {
        (void)mem.allocate(image.names[i], image.initial[i], image.owners[i]);
    }
    ReplayResult r;
    const std::int64_t t0 = now_ns();
    for (const auto& e : ops) {
        r.rmrs += mem.apply(e.pid, e.op).rmr ? 1 : 0;
    }
    r.wall_ns = static_cast<double>(now_ns() - t0);
    r.ops = ops.size();
    return r;
}

}  // namespace perfbench
