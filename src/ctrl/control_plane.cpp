#include "ctrl/control_plane.hpp"

#include <algorithm>
#include <cstring>

#include "math/solver_cache.hpp"
#include "runtime/parallel.hpp"
#include "sim/telemetry_rollup.hpp"
#include "util/check.hpp"

namespace poco::ctrl
{

namespace
{

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void
mixWord(std::uint64_t& h, std::uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        h ^= word & 0xffu;
        h *= kFnvPrime;
        word >>= 8;
    }
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

std::uint64_t
hashAssignment(const std::vector<int>& assignment)
{
    std::uint64_t h = kFnvOffset;
    for (const int j : assignment)
        mixWord(h, static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(j)));
    return h;
}

std::uint64_t
degradationBits(const Degradation& d)
{
    return (d.conservative ? 1u : 0u) |
           (d.modelsUntrusted ? 2u : 0u) | (d.workShed ? 4u : 0u) |
           (d.budgetClamped ? 8u : 0u);
}

/**
 * One record's contribution. The semantic view drops tier/attempts:
 * a failover catch-up legitimately re-solves cold where the oracle
 * repaired, but every rung is exact, so the *answers* must agree.
 */
void
mixRecord(std::uint64_t& h, const EventRecord& r, bool semantic)
{
    mixWord(h, static_cast<std::uint64_t>(r.tick));
    mixWord(h, static_cast<std::uint64_t>(r.kind));
    mixWord(h, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(r.subject)));
    if (!semantic) {
        mixWord(h, static_cast<std::uint64_t>(r.tier));
        mixWord(h, static_cast<std::uint64_t>(r.attempts));
    }
    mixWord(h, static_cast<std::uint64_t>(r.shed ? 1 : 0));
    mixWord(h, doubleBits(r.objective));
    mixWord(h, r.assignmentFingerprint);
    mixWord(h, r.activeBe);
    mixWord(h, r.placeableServers);
}

std::uint64_t
rollupFingerprint(const CtrlRollup& roll, bool semantic)
{
    std::uint64_t h = kFnvOffset;
    for (const EventRecord& r : roll.records)
        mixRecord(h, r, semantic);
    mixWord(h, roll.livenessFingerprint);
    mixWord(h, doubleBits(roll.budgetPool.value()));
    return h;
}

/** Patch the placer's context: memo per engine (replay identity),
 *  none at all when the bench wants every solve cold. */
cluster::SolverContext
placerContext(cluster::SolverContext ctx,
              const ControlPlaneConfig& config,
              math::AssignmentCache& memo)
{
    ctx.cache = config.forceCold ? nullptr : &memo;
    return ctx;
}

} // namespace

std::uint64_t
CtrlCheckpoint::fingerprint() const
{
    std::uint64_t h = kFnvOffset;
    mixWord(h, lsn);
    mixWord(h, static_cast<std::uint64_t>(tick));
    mixWord(h, tracker.fingerprint());
    for (const char a : active)
        mixWord(h, static_cast<std::uint64_t>(a));
    for (const std::size_t be : activeList)
        mixWord(h, be);
    for (const double l : load)
        mixWord(h, doubleBits(l));
    mixWord(h, doubleBits(budgetScale));
    for (const std::size_t s : prevAlive)
        mixWord(h, s);
    for (const EventRecord& r : records)
        mixRecord(h, r, /*semantic=*/false);
    mixWord(h, resolves);
    mixWord(h, sheds);
    mixWord(h, coalesced);
    mixWord(h, maxQueueDepth);
    mixWord(h, static_cast<std::uint64_t>(worst));
    mixWord(h, static_cast<std::uint64_t>(attempts));
    mixWord(h, degradationBits(degradation));
    for (const SimTime t : pending)
        mixWord(h, static_cast<std::uint64_t>(t));
    mixWord(h, dirtySheds);
    return h;
}

ReplayEngine::ReplayEngine(const CellModel& cells,
                           const ControlPlaneConfig& config,
                           cluster::SolverContext context,
                           sim::TelemetryAggregator* telemetry)
    : cells_(cells), config_(config),
      context_(placerContext(context, config_, memo_)),
      telemetry_(telemetry),
      placer_(context_),
      tracker_(config.servers, config.heartbeat,
               config.perServerBudget)
{
    POCO_REQUIRE(static_cast<bool>(cells),
                 "replay engine needs a cell model");
    POCO_REQUIRE(config.bePool > 0,
                 "replay engine needs a BE candidate pool");
    POCO_REQUIRE(config.initialLoad > 0.0 &&
                     config.initialLoad <= 1.0,
                 "initialLoad must be in (0, 1]");
    POCO_REQUIRE(!config.backpressure.enabled ||
                     (config.backpressure.window >= 1 &&
                      config.backpressure.resolveCost > 0),
                 "backpressure needs window >= 1 and a positive "
                 "resolve cost");
    if (telemetry_ != nullptr)
        POCO_REQUIRE(telemetry_->servers() == config.servers,
                     "telemetry sink must cover every server");

    const std::size_t initial_be =
        std::min(config.initialBe, config.bePool);
    active_.assign(config.bePool, 0);
    active_list_.reserve(config.bePool);
    for (std::size_t i = 0; i < initial_be; ++i) {
        active_[i] = 1;
        active_list_.push_back(i);
    }
    load_.assign(config.servers, config.initialLoad);
    cell_table_.assign(config.bePool * config.servers, 0.0);
    cell_valid_.assign(config.bePool * config.servers, 0);
    prev_alive_ = tracker_.placeableServers();
    pending_.reserve(config.backpressure.window + 1);
}

ReplayEngine::ReplayEngine(const CellModel& cells,
                           const ControlPlaneConfig& config,
                           cluster::SolverContext context,
                           const CtrlCheckpoint& checkpoint,
                           sim::TelemetryAggregator* telemetry)
    : cells_(cells), config_(config),
      context_(placerContext(context, config_, memo_)),
      telemetry_(telemetry),
      placer_(context_),
      tracker_(checkpoint.tracker)
{
    POCO_REQUIRE(static_cast<bool>(cells),
                 "replay engine needs a cell model");
    POCO_REQUIRE(checkpoint.active.size() == config.bePool &&
                     checkpoint.load.size() == config.servers,
                 "checkpoint shape does not match the config");
    if (telemetry_ != nullptr)
        POCO_REQUIRE(telemetry_->servers() == config.servers,
                     "telemetry sink must cover every server");

    applied_ = checkpoint.lsn;
    last_tick_ = checkpoint.tick;
    active_ = checkpoint.active;
    active_list_ = checkpoint.activeList;
    active_list_.reserve(config.bePool);
    load_ = checkpoint.load;
    cell_table_.assign(config.bePool * config.servers, 0.0);
    cell_valid_.assign(config.bePool * config.servers, 0);
    budget_scale_ = checkpoint.budgetScale;
    prev_alive_ = checkpoint.prevAlive;
    records_ = checkpoint.records;
    resolves_ = checkpoint.resolves;
    sheds_ = checkpoint.sheds;
    coalesced_ = checkpoint.coalesced;
    max_queue_depth_ = checkpoint.maxQueueDepth;
    worst_ = checkpoint.worst;
    total_attempts_ = checkpoint.attempts;
    degradation_ = checkpoint.degradation;
    pending_ = checkpoint.pending;
    pending_.reserve(config.backpressure.window + 1);
    dirty_sheds_ = checkpoint.dirtySheds;
    // The placer, memo and cell table are deliberately cold here:
    // the ladder's rungs are all exact and every cell is a pure
    // function of the restored loads, so the restored master
    // re-derives the same assignments the checkpointed one would
    // have — only tier counters differ, which is why the oracle
    // comparison uses the semantic fingerprint.
}

void
ReplayEngine::reserveRecords(std::size_t events)
{
    records_.reserve(records_.size() + events);
}

void
ReplayEngine::apply(const ControlEvent& e)
{
    POCO_REQUIRE(!finished_, "replay engine already finished");
    const ControlPlaneConfig& cfg = config_;
    tracker_.advanceTo(e.tick);
    last_tick_ = e.tick;
    std::vector<std::size_t> alive = tracker_.placeableServers();
    // Liveness transitions (dead servers leaving the matrix,
    // recovered ones re-registering) change the topology even when
    // the event itself would not.
    const bool topo_changed = alive != prev_alive_;
    bool matrix_changed = topo_changed;
    cluster::PlacementDelta delta =
        topo_changed ? cluster::PlacementDelta::shape()
                     : cluster::PlacementDelta::fullRefresh();

    switch (e.kind) {
      case EventKind::LoadShift: {
        const double level = std::clamp(e.value, 0.01, 1.0);
        if (e.subject < 0) {
            std::fill(load_.begin(), load_.end(), level);
            std::fill(cell_valid_.begin(), cell_valid_.end(), 0);
            matrix_changed = true;
        } else if (static_cast<std::size_t>(e.subject) <
                   cfg.servers) {
            const auto srv = static_cast<std::size_t>(e.subject);
            load_[srv] = level;
            // Dead or alive, the server's column is stale at the
            // new level.
            for (std::size_t be = 0; be < cfg.bePool; ++be)
                cell_valid_[be * cfg.servers + srv] = 0;
            const auto col =
                std::find(alive.begin(), alive.end(), srv);
            if (col != alive.end()) {
                matrix_changed = true;
                if (!topo_changed)
                    delta = cluster::PlacementDelta::column(
                        static_cast<std::size_t>(
                            col - alive.begin()));
            }
            // A dead server's load moves no matrix cell; the new
            // level applies when it re-registers (a shape change
            // at that tick).
        }
        break;
      }
      case EventKind::BeArrive: {
        for (std::size_t i = 0; i < cfg.bePool; ++i) {
            if (!active_[i]) {
                active_[i] = 1;
                active_list_.push_back(i);
                matrix_changed = true;
                delta = cluster::PlacementDelta::shape();
                break;
            }
        }
        break; // pool exhausted: no-op event
      }
      case EventKind::BeDepart: {
        const auto be =
            static_cast<std::size_t>(e.subject < 0 ? 0 : e.subject);
        if (be < cfg.bePool && active_[be]) {
            active_[be] = 0;
            active_list_.erase(std::find(active_list_.begin(),
                                         active_list_.end(), be));
            matrix_changed = true;
            delta = cluster::PlacementDelta::shape();
        }
        break;
      }
      case EventKind::ServerCrash: {
        if (e.subject >= 0 &&
            static_cast<std::size_t>(e.subject) < cfg.servers)
            tracker_.crash(static_cast<std::size_t>(e.subject));
        // The matrix only changes when the liveness ladder later
        // declares the server dead.
        break;
      }
      case EventKind::ServerRecover: {
        if (e.subject >= 0 &&
            static_cast<std::size_t>(e.subject) < cfg.servers)
            tracker_.recover(static_cast<std::size_t>(e.subject));
        break;
      }
      case EventKind::BudgetChange: {
        budget_scale_ = std::max(0.05, e.value);
        matrix_changed = true;
        if (!topo_changed)
            delta = cluster::PlacementDelta::fullRefresh();
        break;
      }
    }

    EventRecord rec;
    rec.tick = e.tick;
    rec.kind = e.kind;
    rec.subject = e.subject;
    rec.activeBe = static_cast<std::uint32_t>(active_list_.size());
    rec.placeableServers = static_cast<std::uint32_t>(alive.size());

    if (matrix_changed && !alive.empty() && !active_list_.empty()) {
        const BackpressureConfig& bp = cfg.backpressure;
        bool shed_now = false;
        if (bp.enabled) {
            // Re-solves finish in admission order, so the completed
            // prefix of the pending queue drains off the front.
            std::size_t done = 0;
            while (done < pending_.size() &&
                   pending_[done] <= e.tick)
                ++done;
            pending_.erase(pending_.begin(),
                           pending_.begin() +
                               static_cast<std::ptrdiff_t>(done));
            shed_now = pending_.size() >= bp.window;
        }

        // Rows: active BEs in arrival order, shed past the live
        // server count (rows <= cols is a hard solver precond).
        std::vector<std::size_t> rows = active_list_;
        if (rows.size() > alive.size()) {
            rows.resize(alive.size());
            degradation_.workShed = true;
        }

        // Gather the matrix from the cell table, evaluating only
        // the cells a LoadShift invalidated since they were priced.
        // Each cell is an independent pure call; fan the rows out
        // over the pool, each writing its own slice of the flat
        // buffer and its own BE's table row (rows are distinct pool
        // BEs). Slot-addressed writes keep the matrix bit-identical
        // for any worker count.
        cluster::PerformanceMatrix matrix;
        matrix.resize(rows.size(), alive.size());
        runtime::parallelFor(
            context_.pool, rows.size(), [&](std::size_t i) {
                const std::size_t base = rows[i] * cfg.servers;
                double* row = matrix.row(i);
                for (std::size_t c = 0; c < alive.size(); ++c) {
                    const std::size_t k = base + alive[c];
                    if (!cell_valid_[k]) {
                        cell_table_[k] = cells_(rows[i], alive[c],
                                                load_[alive[c]]);
                        cell_valid_[k] = 1;
                    }
                    row[c] = cell_table_[k] * budget_scale_;
                }
            });

        const Outcome<std::vector<int>> placed =
            [&]() -> Outcome<std::vector<int>> {
            if (shed_now) {
                rec.shed = true;
                ++sheds_;
                ++dirty_sheds_;
                return placer_.shed(matrix);
            }
            if (bp.enabled && dirty_sheds_ > 0) {
                // The shed events mutated the modeled state without
                // a solve; this admitted re-solve coalesces all of
                // them (LoadShift-last-wins: the state holds only
                // the latest level) under one shape re-sync.
                delta = cluster::PlacementDelta::shape();
                coalesced_ += dirty_sheds_;
                dirty_sheds_ = 0;
            }
            Outcome<std::vector<int>> out =
                cfg.forceCold
                    ? cluster::placeWithFallback(matrix, context_)
                    : placer_.resolve(matrix, delta);
            if (bp.enabled) {
                // The master is busy until its queue drains; this
                // re-solve starts after the last admitted one.
                const SimTime busy_from =
                    pending_.empty()
                        ? e.tick
                        : std::max(e.tick, pending_.back());
                pending_.push_back(busy_from + bp.resolveCost);
            }
            return out;
        }();
        if (bp.enabled)
            max_queue_depth_ =
                std::max(max_queue_depth_, pending_.size());

        rec.tier = placed.tier;
        rec.attempts = placed.attempts;
        rec.objective = cluster::placementValue(matrix, placed.value);
        rec.assignmentFingerprint = hashAssignment(placed.value);
        worst_ = worseTier(worst_, placed.tier);
        total_attempts_ += placed.attempts;
        degradation_ |= placed.degradation;
        ++resolves_;

        if (telemetry_ != nullptr) {
            for (std::size_t i = 0; i < rows.size(); ++i) {
                if (placed.value[i] < 0)
                    continue; // degraded tiers may shed rows
                const auto c =
                    static_cast<std::size_t>(placed.value[i]);
                const std::size_t srv = alive[c];
                sim::TelemetrySample sample;
                sample.when = e.tick;
                sample.lcLoad = Rps(load_[srv]);
                sample.beThroughput = Rps(matrix(i, c));
                sample.power = Watts(tracker_.granted(srv).value() *
                                     load_[srv]);
                telemetry_->appendDelta(srv, {sample},
                                        tracker_.granted(srv));
            }
        }
    }

    records_.push_back(rec);
    prev_alive_ = std::move(alive);
    ++applied_;
}

CtrlCheckpoint
ReplayEngine::checkpoint() const
{
    POCO_REQUIRE(!finished_, "replay engine already finished");
    CtrlCheckpoint cp(tracker_);
    cp.lsn = applied_;
    cp.tick = last_tick_;
    cp.active = active_;
    cp.activeList = active_list_;
    cp.load = load_;
    cp.budgetScale = budget_scale_;
    cp.prevAlive = prev_alive_;
    cp.records = records_;
    cp.resolves = resolves_;
    cp.sheds = sheds_;
    cp.coalesced = coalesced_;
    cp.maxQueueDepth = max_queue_depth_;
    cp.worst = worst_;
    cp.attempts = total_attempts_;
    cp.degradation = degradation_;
    cp.pending = pending_;
    cp.dirtySheds = dirty_sheds_;
    return cp;
}

Outcome<CtrlRollup>
ReplayEngine::finish(SimTime horizon)
{
    POCO_REQUIRE(!finished_, "replay engine already finished");
    finished_ = true;

    if (telemetry_ != nullptr)
        telemetry_->sealEpoch(0, horizon + 1);

    POCO_ASSERT(tracker_.conservesBudget(),
                "heartbeat tracker leaked budget");

    CtrlRollup roll;
    roll.records = std::move(records_);
    roll.resolves = resolves_;
    roll.sheds = sheds_;
    roll.coalesced = coalesced_;
    roll.maxQueueDepth = max_queue_depth_;
    roll.solver = placer_.stats();
    roll.heartbeat = tracker_.stats();
    roll.budgetPool = tracker_.pool();
    roll.livenessFingerprint = tracker_.fingerprint();
    roll.fingerprint = rollupFingerprint(roll, /*semantic=*/false);
    roll.semanticFingerprint =
        rollupFingerprint(roll, /*semantic=*/true);
    return {std::move(roll), worst_, total_attempts_, degradation_};
}

ControlPlane::ControlPlane(CellModel cells,
                           ControlPlaneConfig config,
                           cluster::SolverContext context)
    : cells_(std::move(cells)), config_(config), context_(context)
{
    POCO_REQUIRE(static_cast<bool>(cells_),
                 "control plane needs a cell model");
    POCO_REQUIRE(config_.servers > 0,
                 "control plane needs at least one server");
    POCO_REQUIRE(config_.bePool > 0,
                 "control plane needs a BE candidate pool");
    POCO_REQUIRE(config_.initialLoad > 0.0 &&
                     config_.initialLoad <= 1.0,
                 "initialLoad must be in (0, 1]");
    config_.initialBe = std::min(config_.initialBe, config_.bePool);
}

Outcome<CtrlRollup>
ControlPlane::replay(const EventLog& log)
{
    // Fresh engine every replay: the identity contract is that two
    // replays of one log agree bit-for-bit, tier counters included.
    ReplayEngine engine(cells_, config_, context_, telemetry_);
    engine.reserveRecords(log.size());
    for (const ControlEvent& e : log.events())
        engine.apply(e);
    return engine.finish(log.horizon());
}

} // namespace poco::ctrl
