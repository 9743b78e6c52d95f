// Abstract interface for simulated reader-writer locks.
//
// A lock implementation allocates its shared variables from the System's
// Memory at construction and expresses its entry/exit sections as SimTask
// coroutines; each shared access inside them is a scheduling point. Every
// SimRWLock is a drive() target (sim/passage.hpp): the process's role picks
// the reader or the writer section.
#pragma once

#include <string>

#include "sim/passage.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace rwr::sim {

class SimRWLock {
   public:
    virtual ~SimRWLock() = default;

    virtual SimTask<void> reader_entry(Process& p) = 0;
    virtual SimTask<void> reader_exit(Process& p) = 0;
    virtual SimTask<void> writer_entry(Process& p) = 0;
    virtual SimTask<void> writer_exit(Process& p) = 0;

    [[nodiscard]] virtual std::string name() const = 0;

    SimTask<void> entry(Process& p) {
        return p.is_reader() ? reader_entry(p) : writer_entry(p);
    }
    SimTask<void> exit(Process& p) {
        return p.is_reader() ? reader_exit(p) : writer_exit(p);
    }
};

}  // namespace rwr::sim
