/**
 * @file
 * DAG task scheduler on top of the thread pool.
 *
 * A TaskGraph holds a set of named nodes with explicit dependency
 * edges. run() executes every node whose dependencies succeeded,
 * scheduling ready nodes onto a ThreadPool as their predecessors
 * finish — so independent per-point pipelines (characterise-HW →
 * run-g5 → collate) overlap instead of running behind global
 * barriers. runSerial() executes the same graph inline, always
 * picking the ready node with the lowest id: with nodes added in
 * campaign order this reproduces the historical serial execution
 * order exactly, which keeps the serial and parallel engines on one
 * code path.
 *
 * Failure semantics: a node that throws marks its transitive
 * dependents as skipped; independent nodes still run. After the
 * graph settles, run()/runSerial() rethrow the exception of the
 * failed node with the lowest id, so the reported error is
 * deterministic at any thread count. A dependency cycle is detected
 * up front and reported via std::logic_error before any node runs.
 *
 * Cancellation: run()/runSerial() accept a CancellationToken. Once
 * it is cancelled, nodes that have not started yet are marked
 * cancelled instead of executed (their dependents are skipped);
 * nodes already running finish normally (or observe the token
 * themselves through their own cooperative checkpoints). A node
 * whose work throws CancelledError is likewise recorded as cancelled
 * rather than failed. After the graph settles, genuine node errors
 * are rethrown first; if the only reason the graph is incomplete is
 * cancellation, CancelledError is thrown.
 *
 * Thread-safety contract: build the graph (add) from one thread,
 * then call run()/runSerial() once; the node callbacks themselves
 * run concurrently under run() and must synchronise any shared data.
 */

#ifndef GEMSTONE_EXEC_TASKGRAPH_HH
#define GEMSTONE_EXEC_TASKGRAPH_HH

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "exec/threadpool.hh"
#include "util/cancellation.hh"

namespace gemstone::exec {

class TaskGraph
{
  public:
    using NodeId = std::size_t;

    /**
     * Add a node. @p deps must name previously added nodes (the
     * builder API cannot express a forward edge, so cycles only
     * arise through addEdge).
     */
    NodeId add(std::string label, std::function<void()> work,
               const std::vector<NodeId> &deps = {});

    /** Add an explicit dependency edge @p from -> @p to. */
    void addEdge(NodeId from, NodeId to);

    std::size_t nodeCount() const { return nodes.size(); }

    /** True when the dependency relation has a cycle. */
    bool hasCycle() const;

    /** Execute on a pool; blocks until the graph settles. */
    void run(ThreadPool &pool);

    /** Execute on a pool, honouring @p token (see file comment). */
    void run(ThreadPool &pool, CancellationToken token);

    /** Execute inline, lowest-id-ready-first (deterministic). */
    void runSerial();

    /** Execute inline, honouring @p token (see file comment). */
    void runSerial(CancellationToken token);

    /**
     * Execute with @p jobs workers, honouring @p token: inline via
     * runSerial() for jobs <= 1, otherwise on a fresh ThreadPool of
     * that many threads with the token attached.
     */
    void runWithJobs(unsigned jobs, CancellationToken token);

    /** True when the node ran to completion without an exception. */
    bool succeeded(NodeId id) const;

    /** True when the node was skipped because a dependency failed. */
    bool skipped(NodeId id) const;

    /** True when the node was abandoned because of cancellation. */
    bool cancelled(NodeId id) const;

  private:
    struct Node
    {
        std::string label;
        std::function<void()> work;
        std::vector<NodeId> dependents;
        std::size_t depCount = 0;
        std::atomic<std::size_t> remainingDeps{0};
        std::atomic<bool> depFailed{false};
        std::exception_ptr error;
        bool wasSkipped = false;
        bool wasCancelled = false;
        bool done = false;
    };

    void checkReadyToRun();
    void executeNode(Node &node);
    void rethrowFirstError();

    std::vector<std::unique_ptr<Node>> nodes;

    /** Token observed by executeNode during the current run. */
    CancellationToken activeToken;

    std::mutex doneMutex;
    std::condition_variable allDone;
    std::size_t completed = 0;
};

} // namespace gemstone::exec

#endif // GEMSTONE_EXEC_TASKGRAPH_HH
