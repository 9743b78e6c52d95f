// Signal-word encodings for Algorithm 1.
//
// RSIG (writer -> readers) holds <seq, opcode> where opcode is NOP ("no
// writer holds WL"), PREENTRY ("notify me when your group's C[i] hits 0") or
// WAIT ("wait for my passage"). WSIG[i] (group-i readers -> writer) holds
// <seq, opcode> with opcode BOT (armed by the writer), PROCEED ("no group-i
// reader is left from older passages"), WAIT (armed for the CS handshake) or
// CS ("all group-i readers present are waiting; enter the CS").
//
// The sequence number makes every signal passage-unique: a CAS attempting to
// signal passage `seq` can never corrupt a later passage's handshake (the
// expected value embeds seq), and a reader spinning on <seq, WAIT> sees at
// most one change (to <seq+1, NOP>) -- that is where the O(1) spin-RMR
// bounds of Lemma 17 come from.
#pragma once

#include "rmr/types.hpp"

namespace rwr::core {

/// RSIG opcodes (paper lines 11, 18, 26).
enum class RsOp : Word {
    Nop = 0,
    PreEntry = 1,
    Wait = 2,
};

/// WSIG opcodes (paper lines 8, 16, 45, 52).
enum class WsOp : Word {
    Bot = 0,      ///< ⊥ in the paper.
    Proceed = 1,
    Wait = 2,
    Cs = 3,
};

[[nodiscard]] constexpr Word pack_sig(Word seq, RsOp op) {
    return (seq << 8) | static_cast<Word>(op);
}
[[nodiscard]] constexpr Word pack_sig(Word seq, WsOp op) {
    return (seq << 8) | static_cast<Word>(op);
}
[[nodiscard]] constexpr Word sig_seq(Word w) { return w >> 8; }
[[nodiscard]] constexpr RsOp sig_rs_op(Word w) {
    return static_cast<RsOp>(w & 0xff);
}
[[nodiscard]] constexpr WsOp sig_ws_op(Word w) {
    return static_cast<WsOp>(w & 0xff);
}

}  // namespace rwr::core
