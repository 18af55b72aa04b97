/**
 * @file
 * TaskGraph implementation.
 */

#include "exec/taskgraph.hh"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "util/logging.hh"

namespace gemstone::exec {

TaskGraph::NodeId
TaskGraph::add(std::string label, std::function<void()> work,
               const std::vector<NodeId> &deps)
{
    panic_if(!work, "TaskGraph node '", label, "' has no work");
    NodeId id = nodes.size();
    nodes.push_back(std::make_unique<Node>());
    Node &node = *nodes.back();
    node.label = std::move(label);
    node.work = std::move(work);
    for (NodeId dep : deps)
        addEdge(dep, id);
    return id;
}

void
TaskGraph::addEdge(NodeId from, NodeId to)
{
    panic_if(from >= nodes.size() || to >= nodes.size(),
             "TaskGraph edge references unknown node");
    panic_if(from == to, "TaskGraph node '", nodes[to]->label,
             "' depends on itself");
    nodes[from]->dependents.push_back(to);
    ++nodes[to]->depCount;
}

bool
TaskGraph::hasCycle() const
{
    // Kahn's algorithm over a scratch copy of the indegrees.
    std::vector<std::size_t> indegree(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i)
        indegree[i] = nodes[i]->depCount;
    std::vector<NodeId> ready;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (indegree[i] == 0)
            ready.push_back(i);
    }
    std::size_t visited = 0;
    while (!ready.empty()) {
        NodeId id = ready.back();
        ready.pop_back();
        ++visited;
        for (NodeId next : nodes[id]->dependents) {
            if (--indegree[next] == 0)
                ready.push_back(next);
        }
    }
    return visited != nodes.size();
}

void
TaskGraph::checkReadyToRun()
{
    if (hasCycle())
        throw std::logic_error("TaskGraph: dependency cycle");
    completed = 0;
    for (const std::unique_ptr<Node> &node : nodes) {
        node->remainingDeps.store(node->depCount,
                                  std::memory_order_relaxed);
        node->depFailed.store(false, std::memory_order_relaxed);
        node->error = nullptr;
        node->wasSkipped = false;
        node->wasCancelled = false;
        node->done = false;
    }
}

void
TaskGraph::executeNode(Node &node)
{
    if (node.depFailed.load(std::memory_order_acquire)) {
        node.wasSkipped = true;
    } else if (activeToken.cancelled()) {
        // Not started yet and the run is being torn down: abandon
        // the node without executing it.
        node.wasCancelled = true;
    } else {
        try {
            node.work();
        } catch (const CancelledError &) {
            // The node observed the token itself; record it as
            // cancelled, not failed, so the settle logic can tell a
            // torn-down run from a broken one.
            node.wasCancelled = true;
        } catch (...) {
            node.error = std::current_exception();
        }
    }
    bool failed = node.wasSkipped || node.wasCancelled || node.error;
    if (failed) {
        for (NodeId next : node.dependents)
            nodes[next]->depFailed.store(true,
                                         std::memory_order_release);
    }
    node.done = true;
}

void
TaskGraph::rethrowFirstError()
{
    // Genuine failures take precedence (lowest id, deterministic at
    // any thread count); a run abandoned purely by cancellation
    // surfaces as CancelledError.
    for (const std::unique_ptr<Node> &node : nodes) {
        if (node->error)
            std::rethrow_exception(node->error);
    }
    for (const std::unique_ptr<Node> &node : nodes) {
        if (node->wasCancelled)
            throw CancelledError("task graph cancelled");
    }
}

void
TaskGraph::run(ThreadPool &pool)
{
    run(pool, CancellationToken());
}

void
TaskGraph::run(ThreadPool &pool, CancellationToken token)
{
    activeToken = std::move(token);
    checkReadyToRun();
    if (nodes.empty())
        return;

    // A node is scheduled exactly once, when its last dependency
    // finishes; schedule() may run on any worker thread.
    std::function<void(NodeId)> schedule = [&](NodeId id) {
        pool.post([this, id, &schedule]() {
            Node &node = *nodes[id];
            executeNode(node);
            for (NodeId next : node.dependents) {
                if (nodes[next]->remainingDeps.fetch_sub(
                        1, std::memory_order_acq_rel) == 1)
                    schedule(next);
            }
            std::lock_guard<std::mutex> lock(doneMutex);
            if (++completed == nodes.size())
                allDone.notify_all();
        });
    };

    for (NodeId id = 0; id < nodes.size(); ++id) {
        if (nodes[id]->depCount == 0)
            schedule(id);
    }

    std::unique_lock<std::mutex> lock(doneMutex);
    allDone.wait(lock, [this]() { return completed == nodes.size(); });
    rethrowFirstError();
}

void
TaskGraph::runSerial()
{
    runSerial(CancellationToken());
}

void
TaskGraph::runSerial(CancellationToken token)
{
    activeToken = std::move(token);
    checkReadyToRun();

    std::set<NodeId> ready;
    for (NodeId id = 0; id < nodes.size(); ++id) {
        if (nodes[id]->depCount == 0)
            ready.insert(id);
    }
    while (!ready.empty()) {
        NodeId id = *ready.begin();
        ready.erase(ready.begin());
        Node &node = *nodes[id];
        executeNode(node);
        ++completed;
        for (NodeId next : node.dependents) {
            if (nodes[next]->remainingDeps.fetch_sub(
                    1, std::memory_order_relaxed) == 1)
                ready.insert(next);
        }
    }
    rethrowFirstError();
}

void
TaskGraph::runWithJobs(unsigned jobs, CancellationToken token)
{
    if (jobs <= 1) {
        runSerial(std::move(token));
        return;
    }
    ThreadPool pool(jobs);
    pool.setCancellationToken(token);
    run(pool, std::move(token));
}

bool
TaskGraph::succeeded(NodeId id) const
{
    panic_if(id >= nodes.size(), "unknown TaskGraph node");
    const Node &node = *nodes[id];
    return node.done && !node.wasSkipped && !node.wasCancelled &&
        !node.error;
}

bool
TaskGraph::skipped(NodeId id) const
{
    panic_if(id >= nodes.size(), "unknown TaskGraph node");
    return nodes[id]->wasSkipped;
}

bool
TaskGraph::cancelled(NodeId id) const
{
    panic_if(id >= nodes.size(), "unknown TaskGraph node");
    return nodes[id]->wasCancelled;
}

} // namespace gemstone::exec
