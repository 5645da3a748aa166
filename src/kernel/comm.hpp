/// \file comm.hpp
/// Rendezvous communications. A mailbox is a named meeting point: the first
/// party (sender or receiver) queues a Comm; the counterpart merges into it
/// and the data transfer starts on the platform route between their hosts.
///
/// Comm control blocks are recycled through the kernel's block pool (one
/// fused allocation per comm, LIFO reuse) and carry the *interned* mailbox
/// id — names are resolved once at the API boundary, never on the per-send
/// hot path.
///
/// ## Endpoint lifetime invariant
///
/// `sender_slot` / `receiver_slot` index the kernel's actor arena, and a
/// dead actor's slot may be reaped and reused. A slot is therefore only
/// resolved to its actor while the matching `*_waiting` flag is true and
/// the comm is not kFinished: a waiting party is blocked on this very comm,
/// hence alive. Every path that finishes a comm (completion, timeout,
/// cancel, kill, failure) marks it kFinished *before* the owning actors can
/// die, and all wake paths check the state first. Anything needed after the
/// comm is over — who sent, between which hosts — is stored by value
/// (`sender_id`, `src_host`, ...).
///
/// A queued comm whose poster never waited on it (`recv_async`, a
/// non-detached `send_async`) can outlive that actor. Matching checks the
/// poster first: if the kernel's slot table no longer names `sender_id` /
/// `receiver_id` for the slot, the comm is an orphan and is withdrawn
/// (kFinished, kCanceled) instead of matched. Detached sends are exempt:
/// they outlive their sender by design.
#pragma once

#include <cstdint>
#include <deque>

#include "core/action.hpp"
#include "kernel/actor.hpp"

namespace sg::kernel {

struct Comm {
  enum class State : std::uint8_t {
    kQueuedSend,  ///< sender waiting for a receiver
    kQueuedRecv,  ///< receiver waiting for a sender
    kMatched,     ///< both parties met on the mailbox's home shard during a
                  ///< quantum; the engine transfer starts when the maestro
                  ///< replays the quantum's pending starts (kernel.hpp)
    kStarted,     ///< transfer in flight
    kFinished,    ///< completed / failed / timed out / canceled
  };

  MailboxId mailbox = kNoMailbox;
  State state = State::kQueuedSend;
  WakeStatus result = WakeStatus::kOk;  ///< outcome, valid when kFinished
  bool detached = false;  ///< sender does not wait for completion
  bool sender_waiting = false;
  bool receiver_waiting = false;

  std::uint32_t sender_slot = 0;  ///< see the endpoint lifetime invariant above
  std::uint32_t receiver_slot = 0;
  ActorId sender_id = -1;  ///< by-value copies, safe after the actors die
  ActorId receiver_id = -1;
  std::int32_t src_host = -1;
  std::int32_t dst_host = -1;

  void* payload = nullptr;
  double bytes = 0;
  double rate = -1;      ///< optional cap on the transfer rate
  core::ActionPtr action;  ///< engine transfer once started
};

struct Mailbox {
  std::deque<CommPtr> queued_sends;
  std::deque<CommPtr> queued_recvs;
  /// Run-queue shard whose actors match on this mailbox directly in their
  /// quanta (assigned at intern time: the interning actor's shard, 0 when
  /// interned from the maestro). Actors on any other shard record their
  /// simcall instead, so the queues are only ever touched by the home lane
  /// or the serial maestro.
  std::int32_t home = 0;
};

}  // namespace sg::kernel
