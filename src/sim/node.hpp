// Base class for every device participating in the simulation. Protocol
// behaviour (beacon, sensor, detecting node, attacker) lives in subclasses;
// the base class owns identity, physics (position, range), and wiring to
// the channel/scheduler.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/message.hpp"
#include "sim/scheduler.hpp"
#include "util/geometry.hpp"

namespace sld::sim {

class Channel;
class Node;

/// A timer a node plans before the run (see Node::plan_start). When it
/// fires and the epoch fence admits it, the owner's on_planned_timer runs
/// with it; `target` and `src` are the owner's to read (a beacon probes
/// `target` from detecting ID `src`, a sensor queries `target`).
struct PlannedTimer {
  SimTime when = 0;
  Node* node = nullptr;
  std::uint32_t epoch = 0;  // the owner's boot epoch when planned
  NodeId target = 0;
  NodeId src = 0;
};

class Node {
 public:
  Node(NodeId id, util::Vec2 position, double range_ft);
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const util::Vec2& position() const { return position_; }
  double range() const { return range_; }

  /// True for beacon nodes (their IDs are recognisable as beacon IDs).
  virtual bool is_beacon() const { return false; }

  /// Invoked by the channel when an authentic-looking packet addressed to
  /// this node arrives. MAC verification is the receiver's job.
  virtual void on_message(const Delivery& delivery) = 0;

  /// The start hook: appends the timers this node plans from
  /// max(now, its phase start) to `plan` and schedules nothing.
  /// Network::start_all calls it once per node in registration order and
  /// runs the whole plan as one sorted lane; replan() calls it again after
  /// a reboot.
  virtual void plan_start(std::vector<PlannedTimer>& plan) { (void)plan; }

  /// Runs planned timer `t` of this node through the epoch fence.
  void fire_planned(const PlannedTimer& t);

  /// Wires the node to its environment; called by Network.
  void attach(Channel* channel, Scheduler* scheduler);

  /// True while the node is inside a crash window whose transition has
  /// fired (Network::start_all schedules the transitions).
  bool is_down() const { return down_; }

  /// Number of times the node has rebooted. Timers remember the epoch they
  /// were scheduled in and refuse to fire after a reboot.
  std::uint32_t boot_epoch() const { return boot_epoch_; }

  /// Node-owned timers dropped because the node crashed or rebooted.
  std::uint64_t timers_dropped() const { return timers_dropped_; }

  /// Crash transition: marks the node down and runs its Recoverable
  /// on_crash hook (if it implements one). Called by Network.
  void crash_now();

  /// Reboot transition: marks the node up, bumps the boot epoch (dropping
  /// every timer scheduled before the crash), emits a `node.reboot` trace
  /// event, and runs the Recoverable on_reboot hook. Called by Network.
  void reboot_now();

 protected:
  Channel& channel() const;
  Scheduler& scheduler() const;

  /// Schedules `action` to run `delay` ns from now as a timer owned by
  /// this node: the action is dropped — never executed — if the node is
  /// down when the timer fires or has rebooted since it was scheduled
  /// (volatile timer state does not survive a crash).
  void schedule_timer(SimTime delay, std::function<void()> action);

  /// Absolute-time variant of schedule_timer.
  void schedule_timer_at(SimTime when, std::function<void()> action);

  /// A planned timer of this node in its current boot epoch.
  PlannedTimer planned_timer(SimTime when, NodeId target, NodeId src) {
    return PlannedTimer{when, this, boot_epoch_, target, src};
  }

  /// Runs a planned timer that passed the epoch fence.
  virtual void on_planned_timer(const PlannedTimer& t) { (void)t; }

  /// Re-plans the start hook's timers through the event heap, one push per
  /// timer in plan order (the restart after a reboot).
  void replan();

 private:
  /// True if the node may act at time `now`: neither dynamically down nor
  /// inside a statically configured crash window.
  bool alive_at(SimTime now) const;

  /// The epoch fence every node timer passes: true if a timer scheduled in
  /// boot epoch `epoch` may act now, else counts it in timers_dropped().
  bool admit_timer(std::uint32_t epoch);

  NodeId id_;
  util::Vec2 position_;
  double range_;
  Channel* channel_ = nullptr;
  Scheduler* scheduler_ = nullptr;
  bool down_ = false;
  SimTime crash_time_ = 0;
  std::uint32_t boot_epoch_ = 0;
  std::uint64_t timers_dropped_ = 0;
};

}  // namespace sld::sim
