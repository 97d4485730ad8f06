// Package taskrt is a dynamic, dataflow task runtime in the spirit of
// PaRSEC (Section II-D of the paper): computational kernels are inserted
// as tasks with declared data accesses, the runtime infers the DAG from
// read/write dependencies (RAW, WAR, WAW), and a pool of workers executes
// ready tasks by priority. The runtime records a trace from which
// makespan, per-kernel times, worker utilization, and the critical path
// of the executed DAG are derived.
//
// Differences from PaRSEC are deliberate: this runtime schedules
// goroutines over shared memory rather than MPI ranks over GPUs, so
// distributed-machine behaviour (communication cost, collective
// ordering, memory per node) is modeled separately by internal/cluster
// against the same task graphs.
package taskrt

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"

	"exaclim/internal/par"
)

// DataKey identifies a logical datum (for the tile Cholesky: matrix name,
// tile row, tile column).
type DataKey struct {
	Space    uint8
	Row, Col int
}

// Task is a unit of work with dataflow dependencies.
type Task struct {
	ID       int
	Name     string // kernel name, e.g. "POTRF"
	Priority int    // larger runs earlier among ready tasks
	Run      func()

	succ   []*Task
	nodeps int // remaining unmet dependencies
	seen   map[int]struct{}
	start  time.Duration
	end    time.Duration
	worker int
}

// Graph accumulates tasks in program order and infers dependencies the
// way PaRSEC's dynamic task discovery does: a read depends on the last
// writer; a write depends on the last writer and on every read since.
type Graph struct {
	tasks      []*Task
	lastWriter map[DataKey]*Task
	readers    map[DataKey][]*Task
}

// NewGraph returns an empty task graph.
func NewGraph() *Graph {
	return &Graph{
		lastWriter: make(map[DataKey]*Task),
		readers:    make(map[DataKey][]*Task),
	}
}

// AddTask inserts a task that reads the reads keys and writes (or updates
// in place) the writes keys. Insertion order defines sequential
// semantics, exactly like PaRSEC's DTD interface.
func (g *Graph) AddTask(name string, priority int, reads, writes []DataKey, run func()) *Task {
	t := &Task{ID: len(g.tasks), Name: name, Priority: priority, Run: run, seen: make(map[int]struct{})}
	for _, k := range reads {
		if w := g.lastWriter[k]; w != nil {
			addEdge(w, t)
		}
		g.readers[k] = append(g.readers[k], t)
	}
	for _, k := range writes {
		if w := g.lastWriter[k]; w != nil && w != t {
			addEdge(w, t)
		}
		for _, r := range g.readers[k] {
			if r != t {
				addEdge(r, t)
			}
		}
		g.lastWriter[k] = t
		g.readers[k] = g.readers[k][:0]
	}
	g.tasks = append(g.tasks, t)
	return t
}

// Len returns the number of tasks inserted so far.
func (g *Graph) Len() int { return len(g.tasks) }

// EdgeCount returns the number of dependency edges in the inferred DAG.
func (g *Graph) EdgeCount() int {
	n := 0
	for _, t := range g.tasks {
		n += len(t.succ)
	}
	return n
}

func addEdge(from, to *Task) {
	if from == to {
		return
	}
	if _, dup := to.seen[from.ID]; dup {
		return
	}
	to.seen[from.ID] = struct{}{}
	from.succ = append(from.succ, to)
	to.nodeps++
}

// KernelStat aggregates executions of one kernel name.
type KernelStat struct {
	Count int
	Total time.Duration
}

// Stats summarizes an execution.
type Stats struct {
	Tasks        int
	Edges        int
	Workers      int
	Makespan     time.Duration
	BusyTime     time.Duration // summed task durations
	CriticalPath time.Duration // longest path through the DAG with measured durations
	ByKernel     map[string]KernelStat
	Trace        []TraceEvent // non-nil only when tracing was requested
}

// Speedup returns BusyTime / Makespan, the effective parallelism achieved.
func (s *Stats) Speedup() float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.BusyTime) / float64(s.Makespan)
}

// Efficiency returns Speedup divided by the worker count.
func (s *Stats) Efficiency() float64 {
	if s.Workers == 0 {
		return 0
	}
	return s.Speedup() / float64(s.Workers)
}

// TraceEvent records one task execution for offline analysis.
type TraceEvent struct {
	Task     string
	Worker   int
	Start    time.Duration
	End      time.Duration
	Priority int
}

// Options configure an execution.
type Options struct {
	Workers int  // <= 0 means GOMAXPROCS
	Trace   bool // record per-task trace events
}

// ErrIncomplete reports that execution stalled before all tasks ran,
// which can only happen if the dependency graph is cyclic (a programming
// error in graph construction).
var ErrIncomplete = errors.New("taskrt: execution stalled with pending tasks (dependency cycle?)")

// readyQueue is a max-heap on (priority, -ID): higher priority first,
// then older tasks first, which mirrors PaRSEC's priority-aware FIFO.
type readyQueue []*Task

func (q readyQueue) Len() int { return len(q) }
func (q readyQueue) Less(i, j int) bool {
	if q[i].Priority != q[j].Priority {
		return q[i].Priority > q[j].Priority
	}
	return q[i].ID < q[j].ID
}
func (q readyQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *readyQueue) Push(x any)   { *q = append(*q, x.(*Task)) }
func (q *readyQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	*q = old[:n-1]
	return t
}

// Run executes the graph and returns execution statistics.
func Run(g *Graph, opt Options) (*Stats, error) {
	workers := par.Workers(opt.Workers)
	var (
		mu        sync.Mutex
		cond      = sync.Cond{L: &mu}
		ready     readyQueue
		remaining = len(g.tasks)
		inflight  int
		stalled   bool
	)
	for _, t := range g.tasks {
		if t.nodeps == 0 {
			ready = append(ready, t)
		}
	}
	heap.Init(&ready)

	epoch := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				mu.Lock()
				for len(ready) == 0 && remaining > 0 && !stalled {
					if inflight == 0 {
						// Nothing running and nothing ready: cycle.
						stalled = true
						cond.Broadcast()
						break
					}
					cond.Wait()
				}
				if stalled || remaining == 0 {
					mu.Unlock()
					return
				}
				t := heap.Pop(&ready).(*Task)
				inflight++
				mu.Unlock()

				t.start = time.Since(epoch)
				if t.Run != nil {
					t.Run()
				}
				t.end = time.Since(epoch)
				t.worker = worker

				mu.Lock()
				inflight--
				remaining--
				for _, s := range t.succ {
					s.nodeps--
					if s.nodeps == 0 {
						heap.Push(&ready, s)
					}
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	stats := &Stats{
		Tasks:    len(g.tasks),
		Edges:    g.EdgeCount(),
		Workers:  workers,
		ByKernel: make(map[string]KernelStat),
	}
	if stalled {
		return stats, fmt.Errorf("%w: %d tasks pending", ErrIncomplete, remaining)
	}
	var makespan time.Duration
	for _, t := range g.tasks {
		d := t.end - t.start
		stats.BusyTime += d
		if t.end > makespan {
			makespan = t.end
		}
		ks := stats.ByKernel[t.Name]
		ks.Count++
		ks.Total += d
		stats.ByKernel[t.Name] = ks
		if opt.Trace {
			stats.Trace = append(stats.Trace, TraceEvent{
				Task: t.Name, Worker: t.worker, Start: t.start, End: t.end, Priority: t.Priority,
			})
		}
	}
	stats.Makespan = makespan
	stats.CriticalPath = criticalPath(g)
	return stats, nil
}

// criticalPath computes the longest path through the DAG using measured
// task durations. Tasks are already topologically ordered by ID (edges
// only point from lower to higher insertion order).
func criticalPath(g *Graph) time.Duration {
	finish := make([]time.Duration, len(g.tasks))
	var longest time.Duration
	for _, t := range g.tasks {
		f := finish[t.ID] + (t.end - t.start)
		if f > longest {
			longest = f
		}
		for _, s := range t.succ {
			if f > finish[s.ID] {
				finish[s.ID] = f
			}
		}
	}
	return longest
}
