/**
 * @file
 * runServerScenario's run driven by hand, so a test keeps the
 * recorder's samples: runServerScenario itself returns only their
 * rollup. The steps (injector first, warm-up, stats reset, run,
 * final advance) must stay those of runServerScenario.
 */

#pragma once

#include <deque>
#include <optional>

#include "fault/fault_injector.hpp"
#include "server/server_manager.hpp"

namespace poco::test
{

/** One managed run: the manager's result plus every sample. */
struct ManagedRun
{
    /** ServerManager::result(); its telemetry rollup stays empty. */
    server::ServerRunResult result;
    std::deque<sim::TelemetrySample> samples;
};

/** Run @p s as runServerScenario would (consumes its controller). */
inline ManagedRun
runManaged(server::ServerScenario& s)
{
    sim::EventQueue queue;
    server::ColocatedServer server(*s.lc, s.be, s.powerCap);
    server::ServerManager manager(server, std::move(s.controller),
                                  std::move(s.trace), s.config);
    std::optional<fault::FaultInjector> injector;
    if (s.faults != nullptr && s.faults->enabled()) {
        injector.emplace(*s.faults);
        injector->attach(queue, &server.meter());
        manager.setFaultInjector(&*injector);
    }
    manager.attach(queue);
    queue.runUntil(s.config.warmup);
    manager.resetStats(queue.now());
    queue.runUntil(s.duration);
    server.advanceTo(queue.now());
    return {manager.result(), manager.telemetry().all()};
}

} // namespace poco::test
