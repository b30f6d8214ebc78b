#include "nautilus/kernel.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace hrt::nk {

namespace {

// Idle-thread pause between work-stealing probes that found nothing.
constexpr sim::Nanos kStealPollInterval = sim::millis(1);

/// The per-CPU idle thread: optionally runs the work stealer, otherwise
/// halts until the next interrupt (section 3.4: "the work stealer ...
/// operates as part of the idle thread that each CPU runs").
class IdleBehavior final : public Behavior {
 public:
  IdleBehavior(std::uint32_t cpu, sim::Nanos probe_ns)
      : cpu_(cpu), probe_ns_(probe_ns) {}

  Action next(ThreadCtx& ctx) override {
    if (!ctx.kernel.options().work_stealing) {
      return Action::halt();
    }
    if (!probed_) {
      probed_ = true;
      return Action::compute(probe_ns_, [this](ThreadCtx& c) {
        stole_ = c.kernel.steal_for(cpu_) != nullptr;
      });
    }
    probed_ = false;
    if (stole_) {
      // Immediately yield to the stolen work.
      return Action::yield();
    }
    // Nothing to steal: pause for the poll interval before probing again.
    return Action::compute(kStealPollInterval);
  }

  [[nodiscard]] std::string describe() const override { return "idle"; }

 private:
  std::uint32_t cpu_;
  sim::Nanos probe_ns_;
  bool probed_ = false;
  bool stole_ = false;
};

}  // namespace

void WaitFlag::set() {
  if (set_) return;
  set_ = true;
  std::vector<Thread*> to_wake = std::move(spinners_);
  spinners_.clear();
  for (Thread* t : to_wake) {
    kernel_.notify_flag(t, this);
  }
}

Kernel::Kernel(hw::Machine& machine, Options options)
    : machine_(machine), options_(std::move(options)) {
  if (!options_.scheduler_factory) {
    throw std::invalid_argument("Kernel: scheduler_factory is required");
  }
  if (options_.interrupt_laden_cpus > machine_.num_cpus()) {
    throw std::invalid_argument(
        "Kernel: interrupt_laden_cpus " +
        std::to_string(options_.interrupt_laden_cpus) + " exceeds the " +
        std::to_string(machine_.num_cpus()) + " CPUs of the machine");
  }
  device_handlers_.resize(256);
}

Kernel::~Kernel() = default;

void Kernel::boot() {
  if (booted_) throw std::logic_error("Kernel::boot called twice");

  calibration_ = timesync::calibrate(machine_);

  machine_.set_freeze_hooks(hw::Machine::FreezeHooks{
      .on_freeze =
          [this](std::uint32_t cpu) {
            if (cpu < executors_.size()) executors_[cpu]->on_freeze();
          },
      .on_unfreeze =
          [this](std::uint32_t cpu, sim::Nanos d) {
            if (cpu < executors_.size()) executors_[cpu]->on_unfreeze(d);
          },
  });

  const std::uint32_t n = machine_.num_cpus();
  executors_.reserve(n);
  schedulers_.reserve(n);
  locals_.reserve(n);
  idle_threads_.reserve(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    schedulers_.push_back(options_.scheduler_factory(*this, c));
    locals_.push_back(schedulers_[c]->local());
    executors_.push_back(
        std::make_unique<CpuExecutor>(*this, c, schedulers_[c].get()));
  }

  const sim::Nanos probe_ns = machine_.spec().freq.cycles_to_ns_ceil(
      4 * machine_.spec().cost.cacheline_transfer);
  for (std::uint32_t c = 0; c < n; ++c) {
    Thread* idle = allocate_thread("idle" + std::to_string(c));
    idle->is_idle = true;
    idle->bound = true;
    idle->cpu = c;
    idle->constraints = rt::Constraints::aperiodic(rt::kIdlePriority);
    behaviors_.push_back(std::make_unique<IdleBehavior>(c, probe_ns));
    idle->behavior = behaviors_.back().get();
    idle_threads_.push_back(idle);
  }
  for (std::uint32_t c = 0; c < n; ++c) {
    executors_[c]->begin(idle_threads_[c]);
  }

  apply_interrupt_partition();
  machine_.smi().start();  // a no-op when the spec disables SMIs
  booted_ = true;
}

Thread* Kernel::allocate_thread(std::string name) {
  if (!pool_.empty()) {
    Thread* t = pool_.back();
    pool_.pop_back();
    ++pool_reuses_;
    t->recycle(next_id_++, std::move(name));
    return t;
  }
  threads_.push_back(std::make_unique<Thread>());
  Thread* t = threads_.back().get();
  t->id = next_id_++;
  t->name = std::move(name);
  return t;
}

Thread* Kernel::create_thread(std::string name,
                              std::unique_ptr<Behavior> behavior,
                              std::uint32_t cpu,
                              rt::AperiodicPriority priority, bool bound) {
  Thread* t =
      create_thread_parked(std::move(name), std::move(behavior), cpu,
                           priority, bound);
  schedulers_[cpu]->enqueue(t);
  // Kick the target local scheduler so the new thread is noticed promptly.
  machine_.cpu(cpu).raise(hw::kKickVector);
  return t;
}

Thread* Kernel::create_thread_parked(std::string name,
                                     std::unique_ptr<Behavior> behavior,
                                     std::uint32_t cpu,
                                     rt::AperiodicPriority priority,
                                     bool bound) {
  if (!booted_) throw std::logic_error("Kernel: create_thread before boot");
  if (cpu >= machine_.num_cpus()) {
    throw std::out_of_range("Kernel: create_thread bad cpu");
  }
  Thread* t = allocate_thread(std::move(name));
  t->cpu = cpu;
  t->bound = bound;
  t->constraints = rt::Constraints::aperiodic(priority);
  behaviors_.push_back(std::move(behavior));
  t->behavior = behaviors_.back().get();
  t->state = Thread::State::kReady;
  return t;
}

void Kernel::commit_thread_batch(const std::vector<Thread*>& batch) {
  std::vector<bool> kicked(machine_.num_cpus(), false);
  for (Thread* t : batch) {
    schedulers_[t->cpu]->enqueue(t);
    kicked[t->cpu] = true;
  }
  for (std::uint32_t c = 0; c < machine_.num_cpus(); ++c) {
    if (kicked[c]) machine_.cpu(c).raise(hw::kKickVector);
  }
}

void Kernel::abort_thread_batch(const std::vector<Thread*>& batch) {
  for (Thread* t : batch) reap(t);
}

void Kernel::prewarm_thread_pool(std::size_t n) {
  while (pool_.size() < n) {
    threads_.push_back(std::make_unique<Thread>());
    Thread* t = threads_.back().get();
    t->state = Thread::State::kPooled;
    pool_.push_back(t);
  }
}

void Kernel::reap(Thread* t) {
  t->state = Thread::State::kPooled;
  pool_.push_back(t);
}

void Kernel::submit_task(std::uint32_t cpu, Task task) {
  schedulers_[cpu]->submit_task(std::move(task));
  // Kick as a real IPI (engine-deferred), never a synchronous raise: a
  // thread may submit a task to its *own* CPU (the rebalancer does), and a
  // same-CPU raise with interrupts enabled would re-enter the executor in
  // the middle of the submitting thread's action.
  machine_.send_ipi(cpu, cpu, hw::kKickVector);
}

void Kernel::register_device_handler(hw::Vector v, sim::Cycles cost,
                                     std::function<void()> on_irq) {
  device_handlers_[v] =
      DeviceHandler{cost, std::move(on_irq), /*registered=*/true};
}

sim::Cycles Kernel::device_handler_cost(hw::Vector v) const {
  const auto& h = device_handlers_[v];
  // Unregistered vectors get a minimal spurious-interrupt cost.
  return h.registered ? h.cost : 200;
}

void Kernel::run_device_callback(hw::Vector v) {
  if (device_handlers_[v].on_irq) device_handlers_[v].on_irq();
}

void Kernel::apply_interrupt_partition() {
  std::uint32_t next = 0;
  const std::uint32_t laden =
      options_.interrupt_laden_cpus == 0 ? 1 : options_.interrupt_laden_cpus;
  for (std::uint32_t v = hw::kFirstDeviceVector; v <= hw::kLastDeviceVector;
       ++v) {
    if (device_handlers_[v].registered) {
      machine_.ioapic().route(static_cast<hw::Vector>(v), next % laden);
      ++next;
    }
  }
}

void Kernel::notify_flag(Thread* t, WaitFlag* f) {
  executors_[t->cpu]->notify_flag(t, f);
}

Thread* Kernel::steal_for(std::uint32_t thief) {
  const std::uint32_t n = machine_.num_cpus();
  if (n < 2) return nullptr;
  sim::Rng& rng = machine_.cpu(thief).rng();
  // Power-of-two-random-choices victim selection (section 3.4).
  std::uint32_t v1 = static_cast<std::uint32_t>(rng.uniform(0, n - 1));
  std::uint32_t v2 = static_cast<std::uint32_t>(rng.uniform(0, n - 1));
  if (v1 == thief) v1 = (v1 + 1) % n;
  if (v2 == thief) v2 = (v2 + 1) % n;
  const std::uint32_t victim =
      schedulers_[v1]->stealable_count() >= schedulers_[v2]->stealable_count()
          ? v1
          : v2;
  if (schedulers_[victim]->stealable_count() == 0) return nullptr;
  Thread* t = schedulers_[victim]->try_steal();
  if (t == nullptr) return nullptr;
  ++steals_;
  t->cpu = thief;
  schedulers_[thief]->enqueue(t);
  return t;
}

bool Kernel::migrate_aperiodic(Thread* t, std::uint32_t to) {
  if (t == nullptr || to >= num_cpus() || t->cpu == to) return false;
  if (t->is_realtime() || t->is_idle) return false;
  if (executors_[t->cpu]->current() == t) return false;
  const bool sleeping = t->state == Thread::State::kSleeping;
  if (!sleeping && t->state != Thread::State::kReady) return false;
  if (!schedulers_[t->cpu]->detach_for_migration(*t)) return false;
  const std::uint32_t from = t->cpu;
  t->cpu = to;
  if (sleeping) {
    // Still sleeping, just on the destination's sleep queue now; the
    // destination timer must cover the wake, hence the kick below.
    schedulers_[to]->on_sleep(*t, t->wake_time);
  } else {
    schedulers_[to]->enqueue(t);
  }
  ++aperiodic_migrations_;
  if (auto* tel = telemetry()) {
    tel->recorder().record(to, telemetry::EventKind::kAperiodicMigrate,
                           machine_.cpu(to).tsc().wall_ns(),
                           static_cast<std::uint32_t>(t->id), from);
  }
  machine_.send_ipi(t->cpu, to, hw::kKickVector);
  return true;
}

std::vector<Thread*> Kernel::live_threads() const {
  std::vector<Thread*> out;
  for (const auto& t : threads_) {
    if (t->state != Thread::State::kPooled) out.push_back(t.get());
  }
  return out;
}

}  // namespace hrt::nk
