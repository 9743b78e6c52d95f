// Component attribution of simulated RMRs, measured from outside the
// library: a StepObserver that charges every RMR step to the lock
// component named by the variable's Memory::name() prefix, split by the
// stepping process's role. The paper prices A_f by these parts: the
// f-array counters C[i]/W[i] (Theta(log(n/f)) per reader passage), the
// WSIG handshake (Theta(f) per writer passage) and the writer mutex WL
// (Theta(log m)).
//
// Also here: a recorder of the (pid, op) stream and its replay through a
// fresh Memory, which prices Memory::apply alone.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "rmr/memory.hpp"
#include "sim/system.hpp"

namespace perfbench {

enum class Component : std::uint8_t { Counter, Rsig, Wsig, Wl, Other };
inline constexpr std::size_t kComponents = 5;

/// af.C<i>.* / af.W<i>.* -> Counter; af.RSIG, af.RGATE<r> -> Rsig;
/// af.WSIG<i>, af.WSEQ -> Wsig; af.WL.* -> Wl; anything else -> Other.
[[nodiscard]] Component classify(std::string_view var_name);

class ComponentLedger final : public rwr::sim::StepObserver {
   public:
    /// Classifies every variable `mem` holds now; build the scenario first.
    explicit ComponentLedger(const rwr::Memory& mem);

    void on_step(const rwr::sim::System& sys, const rwr::sim::Process& p,
                 const rwr::Op& op, const rwr::OpResult& res) override;

    /// [role][component] RMRs; role 0 = reader, 1 = writer.
    [[nodiscard]] std::uint64_t rmrs(int role, Component c) const {
        return rmrs_[role][static_cast<std::size_t>(c)];
    }
    [[nodiscard]] std::uint64_t total_rmrs() const;
    [[nodiscard]] std::uint64_t mem_ops() const { return mem_ops_; }
    [[nodiscard]] std::uint64_t rmr_steps() const { return rmr_steps_; }

   private:
    std::vector<Component> comp_of_var_;
    std::array<std::array<std::uint64_t, kComponents>, 2> rmrs_{};
    std::uint64_t mem_ops_ = 0;
    std::uint64_t rmr_steps_ = 0;
};

/// Records the memory-touching (pid, op) stream of a run, up to `cap`
/// entries, and the RMRs those entries incurred.
class OpRecorder final : public rwr::sim::StepObserver {
   public:
    explicit OpRecorder(std::size_t cap) : cap_(cap) { ops_.reserve(cap); }

    void on_step(const rwr::sim::System& sys, const rwr::sim::Process& p,
                 const rwr::Op& op, const rwr::OpResult& res) override;

    struct Entry {
        rwr::ProcId pid;
        rwr::Op op;
    };
    [[nodiscard]] const std::vector<Entry>& ops() const { return ops_; }
    [[nodiscard]] std::uint64_t recorded_rmrs() const { return rmrs_; }

   private:
    std::size_t cap_;
    std::vector<Entry> ops_;
    std::uint64_t rmrs_ = 0;
};

/// Name, initial value and DSM owner of every variable of a freshly built
/// (not yet stepped) memory.
struct VarImage {
    rwr::Protocol protocol{};
    std::vector<std::string> names;
    std::vector<rwr::Word> initial;
    std::vector<rwr::ProcId> owners;
};
[[nodiscard]] VarImage snapshot_vars(const rwr::Memory& mem);

struct ReplayResult {
    std::uint64_t ops = 0;
    std::uint64_t rmrs = 0;
    double wall_ns = 0;
};
/// Rebuilds a Memory from `image` and applies `ops` in order, timing the
/// apply loop only.
[[nodiscard]] ReplayResult replay(const VarImage& image,
                                  const std::vector<OpRecorder::Entry>& ops);

}  // namespace perfbench
