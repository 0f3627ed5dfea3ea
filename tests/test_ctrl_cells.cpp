/**
 * @file
 * The replay engine's cell table: every performance-matrix cell is a
 * pure function of (BE, server, that server's LC load), so an engine
 * evaluates the CellModel at most once per (BE, server) between load
 * changes of that server and gathers the matrix from its table.
 *
 * A counting cell model pins the invalidation rules event by event
 * (only a LoadShift re-prices cells; BudgetChange, BE churn and
 * liveness changes re-index what is already there), and the pinned
 * fingerprints show the table moved no answer: they were produced by
 * the tree that rebuilt the whole matrix on every event. Runs under
 * tier-ctrl and tier-tsan (pooled row fills write the table).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "cluster/placement.hpp"
#include "ctrl/control_plane.hpp"
#include "ctrl/event_log.hpp"
#include "ctrl/master_group.hpp"
#include "fault/fault_plan.hpp"
#include "runtime/thread_pool.hpp"
#include "synthetic_cell.hpp"

namespace poco::ctrl
{
namespace
{

using test::syntheticCell;

/** syntheticCell that counts its calls (pool workers call it
 *  concurrently, hence the atomic). */
struct CountingCell
{
    std::atomic<std::size_t>* calls;

    double operator()(std::size_t be, std::size_t server,
                      double load) const
    {
        calls->fetch_add(1, std::memory_order_relaxed);
        return syntheticCell(be, server, load);
    }
};

/** 6 servers, a pool of 5 BEs with 4 active: 4 x 6 matrices. */
ControlPlaneConfig
cellConfig()
{
    ControlPlaneConfig config;
    config.servers = 6;
    config.bePool = 5;
    config.initialBe = 4;
    config.initialLoad = 0.5;
    config.perServerBudget = Watts{90.0};
    config.heartbeat.periodTicks = kSecond;
    config.heartbeat.jitterTicks = kSecond / 10;
    config.heartbeat.suspectMisses = 2;
    config.heartbeat.deadMisses = 4;
    config.heartbeat.seed = 5;
    return config;
}

ControlEvent
event(SimTime tick, EventKind kind, int subject, double value = 0.0)
{
    ControlEvent e;
    e.tick = tick;
    e.kind = kind;
    e.subject = subject;
    e.value = value;
    return e;
}

/** Apply one event; return how many cells it evaluated. */
std::size_t
applyCounting(ReplayEngine& engine, std::atomic<std::size_t>& calls,
              const ControlEvent& e)
{
    calls.store(0);
    engine.apply(e);
    return calls.load();
}

EventRecord
lastRecord(const ReplayEngine& engine)
{
    return engine.checkpoint().records.back();
}

/** A storm with every event kind, fleet-wide shifts included. */
EventLogConfig
stormConfig(std::uint64_t seed)
{
    EventLogConfig config;
    config.horizon = 40 * kSecond;
    config.servers = 6;
    config.bePool = 5;
    config.loadShiftRate = 1.5;
    config.beChurnRate = 0.4;
    config.crashRate = 0.1;
    config.budgetChangeRate = 0.1;
    config.meanOutage = 6 * kSecond;
    config.seed = seed;
    return config;
}

/** Fails the calling test unless @p log holds every event kind and
 *  at least one fleet-wide LoadShift. */
void
expectEveryKind(const EventLog& log)
{
    std::vector<int> seen(6, 0);
    int fleet_wide = 0;
    for (const ControlEvent& e : log.events()) {
        ++seen[static_cast<std::size_t>(e.kind)];
        if (e.kind == EventKind::LoadShift && e.subject < 0)
            ++fleet_wide;
    }
    for (std::size_t k = 0; k < seen.size(); ++k)
        EXPECT_GT(seen[k], 0)
            << eventKindName(static_cast<EventKind>(k));
    EXPECT_GT(fleet_wide, 0);
}

/** Record fields that carry results (tiers/attempts excluded: a
 *  restored engine's solver is cold by design). */
void
expectSameResult(const EventRecord& a, const EventRecord& b,
                 std::size_t i)
{
    EXPECT_EQ(a.tick, b.tick) << "event " << i;
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.subject, b.subject) << "event " << i;
    EXPECT_EQ(a.shed, b.shed) << "event " << i;
    EXPECT_EQ(a.objective, b.objective) << "event " << i;
    EXPECT_EQ(a.assignmentFingerprint, b.assignmentFingerprint)
        << "event " << i;
    EXPECT_EQ(a.activeBe, b.activeBe) << "event " << i;
    EXPECT_EQ(a.placeableServers, b.placeableServers)
        << "event " << i;
}

TEST(CtrlCells, LiveServerShiftEvaluatesOneColumn)
{
    std::atomic<std::size_t> calls{0};
    ReplayEngine engine(CountingCell{&calls}, cellConfig(), {});

    // The first re-solve fills the table: rows x live servers.
    EXPECT_EQ(applyCounting(engine, calls,
                            event(kSecond / 10,
                                  EventKind::BudgetChange, -1, 1.0)),
              4u * 6u);

    const std::size_t shifted = applyCounting(
        engine, calls,
        event(kSecond / 5, EventKind::LoadShift, 2, 0.8));
    const EventRecord rec = lastRecord(engine);
    EXPECT_NE(rec.tier, SolverTier::None);
    EXPECT_EQ(rec.placeableServers, 6u);
    EXPECT_EQ(shifted, rec.activeBe) << "one cell per active row";
}

TEST(CtrlCells, NonLoadEventsEvaluateNothing)
{
    std::atomic<std::size_t> calls{0};
    ReplayEngine engine(CountingCell{&calls}, cellConfig(), {});
    ASSERT_EQ(applyCounting(engine, calls,
                            event(kSecond / 10,
                                  EventKind::BudgetChange, -1, 1.0)),
              24u);

    struct Step
    {
        ControlEvent e;
        std::size_t cells;
        std::uint32_t activeBe;
        std::uint32_t placeable;
        bool resolves;
    };
    const std::vector<Step> steps = {
        // A rescale multiplies the cached cells.
        {event(2 * kSecond / 10, EventKind::BudgetChange, -1, 0.7), 0,
         4, 6, true},
        // Churn and liveness only re-index rows and columns.
        {event(3 * kSecond / 10, EventKind::BeDepart, 1), 0, 3, 6,
         true},
        // BE 1 comes back (first idle pool slot): its row is filled.
        {event(4 * kSecond / 10, EventKind::BeArrive, -1), 0, 4, 6,
         true},
        {event(5 * kSecond / 10, EventKind::ServerCrash, 3), 0, 4, 6,
         false},
        // Declared dead by now: the column leaves the matrix.
        {event(10 * kSecond, EventKind::BudgetChange, -1, 0.9), 0, 4,
         5, true},
        {event(10 * kSecond + kSecond / 2, EventKind::ServerRecover,
               3),
         0, 4, 5, false},
        // Re-registered, never shifted: the column is still valid.
        {event(15 * kSecond, EventKind::BudgetChange, -1, 1.0), 0, 4,
         6, true},
        // BE 4 was never active: its row is new, one cell per server.
        {event(16 * kSecond, EventKind::BeArrive, -1), 6, 5, 6, true},
    };
    for (const Step& step : steps) {
        SCOPED_TRACE(eventKindName(step.e.kind));
        EXPECT_EQ(applyCounting(engine, calls, step.e), step.cells);
        const EventRecord rec = lastRecord(engine);
        EXPECT_EQ(rec.activeBe, step.activeBe);
        EXPECT_EQ(rec.placeableServers, step.placeable);
        EXPECT_EQ(rec.tier != SolverTier::None, step.resolves);
    }
}

TEST(CtrlCells, DeadServerShiftIsEvaluatedAtItsNewLevelOnReturn)
{
    std::atomic<std::size_t> calls{0};
    ReplayEngine engine(CountingCell{&calls}, cellConfig(), {});
    ASSERT_EQ(applyCounting(engine, calls,
                            event(kSecond / 10,
                                  EventKind::BudgetChange, -1, 1.0)),
              24u);

    engine.apply(event(kSecond / 2, EventKind::ServerCrash, 2));
    EXPECT_EQ(applyCounting(engine, calls,
                            event(10 * kSecond,
                                  EventKind::BudgetChange, -1, 1.0)),
              0u);
    ASSERT_EQ(lastRecord(engine).placeableServers, 5u);

    // A dead server's shift moves no live cell and solves nothing.
    EXPECT_EQ(applyCounting(engine, calls,
                            event(10 * kSecond + kSecond / 5,
                                  EventKind::LoadShift, 2, 0.9)),
              0u);
    EXPECT_EQ(lastRecord(engine).tier, SolverTier::None);

    engine.apply(event(10 * kSecond + kSecond / 2,
                       EventKind::ServerRecover, 2));
    EXPECT_EQ(applyCounting(engine, calls,
                            event(15 * kSecond,
                                  EventKind::BudgetChange, -1, 0.8)),
              4u)
        << "the returning column is re-priced, nothing else";
    const EventRecord rec = lastRecord(engine);
    ASSERT_EQ(rec.placeableServers, 6u);
    ASSERT_EQ(rec.activeBe, 4u);

    // The same matrix built straight from the model, at the new
    // level and at the stale one.
    const auto direct = [](double server2_load) {
        cluster::PerformanceMatrix m;
        m.resize(4, 6);
        for (std::size_t i = 0; i < 4; ++i)
            for (std::size_t s = 0; s < 6; ++s)
                m(i, s) = syntheticCell(
                              i, s, s == 2 ? server2_load : 0.5) *
                          0.8;
        return m;
    };
    const cluster::PerformanceMatrix fresh = direct(0.9);
    EXPECT_EQ(rec.objective,
              cluster::placementValue(
                  fresh, cluster::place(
                             fresh, cluster::PlacementKind::Hungarian)));
    const cluster::PerformanceMatrix stale = direct(0.5);
    EXPECT_NE(rec.objective,
              cluster::placementValue(
                  stale, cluster::place(
                             stale, cluster::PlacementKind::Hungarian)));
}

TEST(CtrlCells, FleetWideShiftEvaluatesEveryLiveCellOnce)
{
    std::atomic<std::size_t> calls{0};
    ReplayEngine engine(CountingCell{&calls}, cellConfig(), {});
    ASSERT_EQ(applyCounting(engine, calls,
                            event(kSecond / 10,
                                  EventKind::BudgetChange, -1, 1.0)),
              24u);
    engine.apply(event(kSecond / 2, EventKind::ServerCrash, 5));
    ASSERT_EQ(applyCounting(engine, calls,
                            event(10 * kSecond,
                                  EventKind::BudgetChange, -1, 1.0)),
              0u);
    ASSERT_EQ(lastRecord(engine).placeableServers, 5u);

    EXPECT_EQ(applyCounting(engine, calls,
                            event(10 * kSecond + kSecond / 5,
                                  EventKind::LoadShift, -1, 0.3)),
              4u * 5u)
        << "every live cell, dead column excluded";
    EXPECT_EQ(applyCounting(engine, calls,
                            event(10 * kSecond + kSecond / 4,
                                  EventKind::BudgetChange, -1, 0.9)),
              0u)
        << "each cell exactly once";

    // The dead column went stale with the fleet; it is re-priced
    // when the server re-registers.
    engine.apply(event(10 * kSecond + kSecond / 2,
                       EventKind::ServerRecover, 5));
    EXPECT_EQ(applyCounting(engine, calls,
                            event(15 * kSecond,
                                  EventKind::BudgetChange, -1, 1.0)),
              4u);
    EXPECT_EQ(lastRecord(engine).placeableServers, 6u);
}

TEST(CtrlCells, RestoredEngineMatchesTheUninterruptedOne)
{
    const EventLog log = EventLog::generate(stormConfig(1405));
    expectEveryKind(log);
    const ControlPlaneConfig config = cellConfig();
    std::atomic<std::size_t> calls{0};
    const CellModel model = CountingCell{&calls};

    ReplayEngine whole(model, config, {});
    for (const ControlEvent& e : log.events())
        whole.apply(e);
    const CtrlRollup oracle = whole.finish(log.horizon()).value;

    const std::size_t cut = log.size() / 2;
    ReplayEngine first(model, config, {});
    for (std::size_t i = 0; i < cut; ++i)
        first.apply(log.events()[i]);
    ReplayEngine restored(model, config, {}, first.checkpoint());

    // The table is not checkpointed: the first re-solve after the
    // restore evaluates its whole matrix.
    bool checked_cold_table = false;
    for (std::size_t i = cut; i < log.size(); ++i) {
        const std::size_t cells =
            applyCounting(restored, calls, log.events()[i]);
        const EventRecord rec = lastRecord(restored);
        if (!checked_cold_table && rec.tier != SolverTier::None) {
            const std::size_t rows =
                std::min(rec.activeBe, rec.placeableServers);
            EXPECT_EQ(cells, rows * rec.placeableServers);
            checked_cold_table = true;
        }
    }
    EXPECT_TRUE(checked_cold_table);
    const CtrlRollup resumed = restored.finish(log.horizon()).value;

    ASSERT_EQ(resumed.records.size(), oracle.records.size());
    for (std::size_t i = 0; i < oracle.records.size(); ++i)
        expectSameResult(resumed.records[i], oracle.records[i], i);
    EXPECT_EQ(resumed.semanticFingerprint, oracle.semanticFingerprint);
    EXPECT_EQ(resumed.livenessFingerprint, oracle.livenessFingerprint);
}

TEST(CtrlCells, PoolWidthMovesNoBitAndNoCellCount)
{
    const EventLog log = EventLog::generate(stormConfig(1406));
    expectEveryKind(log);
    std::size_t single_server = 0;
    std::size_t fleet_wide = 0;
    for (const ControlEvent& e : log.events())
        if (e.kind == EventKind::LoadShift)
            ++(e.subject < 0 ? fleet_wide : single_server);

    struct Run
    {
        CtrlRollup roll;
        std::size_t cells;
    };
    const auto replayWith = [&log](unsigned workers) {
        runtime::ThreadPool pool(workers);
        cluster::SolverContext context;
        context.pool = &pool;
        std::atomic<std::size_t> calls{0};
        ControlPlane plane(CountingCell{&calls}, cellConfig(), context);
        Run run{plane.replay(log).value, 0};
        run.cells = calls.load();
        return run;
    };
    const Run one = replayWith(1);
    const Run four = replayWith(4);
    EXPECT_EQ(one.roll.fingerprint, four.roll.fingerprint);
    EXPECT_EQ(one.roll.semanticFingerprint,
              four.roll.semanticFingerprint);
    EXPECT_EQ(one.cells, four.cells);

    // Each cell is priced once per load change of its server.
    const ControlPlaneConfig config = cellConfig();
    EXPECT_LE(one.cells,
              config.servers * config.bePool * (1 + fleet_wide) +
                  config.bePool * single_server);
    EXPECT_GT(one.cells, 0u);
}

// ---- pinned answers of the per-event full rebuild ----
//
// Produced by commit 46d832e, whose ReplayEngine re-evaluated every
// cell on every event. The cell table must reproduce them bit for
// bit: it changes which cells are evaluated, never a value.

constexpr std::uint64_t kStormFingerprint =
    0x8ce30c6a93cce494ull;
constexpr std::uint64_t kStormSemantic =
    0xf2335d6a0bd9b6d7ull;
constexpr std::uint64_t kBackpressureFingerprint =
    0x5f3291c7631c3335ull;
constexpr std::uint64_t kBackpressureSemantic =
    0x93eda3073d930d15ull;
constexpr std::uint64_t kGroupFingerprint =
    0xca309b8bb7f07e0bull;
constexpr std::uint64_t kGroupRollupFingerprint =
    0x0657cefd89068e37ull;

TEST(CtrlPinned, StormReplayMatchesTheFullRebuild)
{
    const EventLog log = EventLog::generate(stormConfig(1403));
    expectEveryKind(log);

    ControlPlane plain(syntheticCell, cellConfig());
    const CtrlRollup off = plain.replay(log).value;
    EXPECT_EQ(off.fingerprint, kStormFingerprint);
    EXPECT_EQ(off.semanticFingerprint, kStormSemantic);

    ControlPlaneConfig pressed = cellConfig();
    pressed.backpressure.enabled = true;
    pressed.backpressure.window = 2;
    pressed.backpressure.resolveCost = kSecond;
    ControlPlane shedding(syntheticCell, pressed);
    const CtrlRollup on = shedding.replay(log).value;
    EXPECT_GT(on.sheds, 0u) << "the window must actually shed";
    EXPECT_GT(on.coalesced, 0u);
    EXPECT_EQ(on.fingerprint, kBackpressureFingerprint);
    EXPECT_EQ(on.semanticFingerprint, kBackpressureSemantic);
}

TEST(CtrlPinned, MasterKillRollupMatchesTheFullRebuild)
{
    const EventLog log = EventLog::generate(stormConfig(1402));

    MasterGroupConfig group;
    group.masters = 2;
    group.lease.periodTicks = kSecond;
    group.lease.jitterTicks = kSecond / 10;
    group.lease.suspectMisses = 2;
    group.lease.deadMisses = 4;
    group.lease.seed = 99;
    group.checkpointEvery = 8;

    fault::FaultWindow kill;
    kill.kind = fault::FaultKind::MasterKill;
    kill.server = 0;
    kill.start = 10 * kSecond;
    kill.end = 30 * kSecond;

    MasterGroup masters(syntheticCell, cellConfig(), group);
    const MasterGroupRollup roll =
        masters.run(log, fault::FaultPlan::fromWindows({kill})).value;
    ASSERT_GE(roll.failovers.size(), 1u);
    EXPECT_TRUE(roll.failovers[0].restored);
    EXPECT_EQ(roll.fingerprint, kGroupFingerprint);
    EXPECT_EQ(roll.rollup.fingerprint, kGroupRollupFingerprint);
}

} // namespace
} // namespace poco::ctrl
