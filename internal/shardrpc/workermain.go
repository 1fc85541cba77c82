package shardrpc

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rbpc/internal/engine"
	"rbpc/internal/graph"
	"rbpc/internal/rbpc"
	"rbpc/internal/topology"
)

// WorkerOpts is the complete description of one worker process's world:
// enough to rebuild the coordinator's exact provision from scratch
// (topology kind, scale, seed, closure, hot set), the ownership contract
// (shards, index) and the engine tuning. Workers receive it as a single
// flag value — the spec is the whole inter-process configuration channel,
// so a worker never reads state the coordinator didn't spell out. Where to
// serve is not in it: a worker serves the listener it inherits from its
// Fleet (RunWorker).
type WorkerOpts struct {
	Topology   string
	Scale      float64
	Seed       int64
	Closure    bool
	HotSources int

	Shards int
	Index  int

	MaxProcs int // GOMAXPROCS inside the worker (0 = inherit)
	// Workers and Queue cross in the spec and size nothing: a worker
	// answers no query (Config.Engine sizes the coordinator's pool).
	Workers      int
	Queue        int
	PlanCacheMax int
}

// Encode renders the spec as a comma-separated k=v string — the value of
// the serving binaries' -worker flag.
func (o WorkerOpts) Encode() string {
	return strings.Join([]string{
		"topo=" + o.Topology,
		"scale=" + strconv.FormatFloat(o.Scale, 'g', -1, 64),
		"seed=" + strconv.FormatInt(o.Seed, 10),
		"closure=" + b2s(o.Closure),
		"hot=" + strconv.Itoa(o.HotSources),
		"shards=" + strconv.Itoa(o.Shards),
		"index=" + strconv.Itoa(o.Index),
		"maxprocs=" + strconv.Itoa(o.MaxProcs),
		"workers=" + strconv.Itoa(o.Workers),
		"queue=" + strconv.Itoa(o.Queue),
		"plan-cache=" + strconv.Itoa(o.PlanCacheMax),
	}, ",")
}

func b2s(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// ParseWorkerOpts inverts Encode.
func ParseWorkerOpts(spec string) (WorkerOpts, error) {
	var o WorkerOpts
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return WorkerOpts{}, fmt.Errorf("shardrpc: worker spec field %q is not k=v", field)
		}
		var err error
		switch k {
		case "topo":
			o.Topology = v
		case "scale":
			o.Scale, err = strconv.ParseFloat(v, 64)
		case "seed":
			o.Seed, err = strconv.ParseInt(v, 10, 64)
		case "closure":
			o.Closure = v == "1"
		case "hot":
			o.HotSources, err = strconv.Atoi(v)
		case "shards":
			o.Shards, err = strconv.Atoi(v)
		case "index":
			o.Index, err = strconv.Atoi(v)
		case "maxprocs":
			o.MaxProcs, err = strconv.Atoi(v)
		case "workers":
			o.Workers, err = strconv.Atoi(v)
		case "queue":
			o.Queue, err = strconv.Atoi(v)
		case "plan-cache":
			o.PlanCacheMax, err = strconv.Atoi(v)
		default:
			return WorkerOpts{}, fmt.Errorf("shardrpc: worker spec has unknown key %q", k)
		}
		if err != nil {
			return WorkerOpts{}, fmt.Errorf("shardrpc: worker spec %s: %v", k, err)
		}
	}
	if o.Topology == "" || o.Shards < 1 {
		return WorkerOpts{}, fmt.Errorf("shardrpc: worker spec %q missing topo/shards", spec)
	}
	return o, nil
}

// Provision builds the deployment's world from the spec: the topology from
// (kind, scale, seed) and the RBPC system over it. The hot set is the
// first HotSources node IDs — deterministic, and on the generated
// topologies node IDs carry no locality, so it behaves like a uniform
// sample of the pair space. There is one recipe, at two depths: the
// coordinator's process builds the whole system here, and every worker
// process builds the write side of the same recipe (RunWorker,
// rbpc.WriteProvision: the same base set and LSP numbering, no forwarding
// plane). The attach contract proves they agree: a worker's hello carries
// the digest of its LSP table (registryDigest: IDs and paths), and the
// coordinator refuses one that differs from its own.
func (o WorkerOpts) Provision() (rbpc.Provision, error) {
	g, rcfg, err := o.recipe()
	if err != nil {
		return rbpc.Provision{}, err
	}
	sys, err := rbpc.NewSystem(g, rcfg)
	if err != nil {
		return rbpc.Provision{}, fmt.Errorf("provision: %w", err)
	}
	return sys.Export(), nil
}

// recipe is the (topology, configuration) pair the spec provisions.
func (o WorkerOpts) recipe() (*graph.Graph, rbpc.Config, error) {
	g, err := topology.Build(o.Topology, o.Scale, o.Seed)
	if err != nil {
		return nil, rbpc.Config{}, err
	}
	rcfg := rbpc.Config{SubpathClosure: o.Closure, EdgeLSPs: true}
	if o.HotSources > 0 && o.HotSources < g.Order() {
		srcs := make([]graph.NodeID, o.HotSources)
		for i := range srcs {
			srcs[i] = graph.NodeID(i)
		}
		rcfg.Sources = srcs
	}
	return g, rcfg, nil
}

// listenerFD is the descriptor a worker process inherits its listener on:
// the first of exec.Cmd.ExtraFiles, after stdin, stdout and stderr.
const listenerFD = 3

// RunWorker is the worker process's whole life: build the write side of
// the provision the coordinator described (rbpc.WriteProvision over the
// spec's recipe: the base set and LSP records the coordinator's Provision
// numbers identically, and no forwarding plane, which a worker never
// reads), slice it onto this index's shard engine, and serve the listener
// inherited on descriptor 3 until the process is killed. The Fleet opened
// that listener before forking and holds it open, so the coordinator's
// connections queue on it while this process provisions; a process started
// without one fails before provisioning. It never returns nil: the
// supervisor kills workers, workers don't exit.
func RunWorker(o WorkerOpts) error {
	if o.MaxProcs > 0 {
		runtime.GOMAXPROCS(o.MaxProcs)
	}
	f := os.NewFile(listenerFD, "listener")
	if f == nil {
		return fmt.Errorf("shardrpc: worker %d: no inherited listener on descriptor %d", o.Index, listenerFD)
	}
	l, err := net.FileListener(f)
	f.Close() // FileListener serves a duplicate
	if err != nil {
		return fmt.Errorf("shardrpc: worker %d: inherited listener on descriptor %d: %w", o.Index, listenerFD, err)
	}
	g, rcfg, err := o.recipe()
	if err != nil {
		return fmt.Errorf("shardrpc: worker %d: %w", o.Index, err)
	}
	p, err := rbpc.WriteProvision(g, rcfg)
	if err != nil {
		return fmt.Errorf("shardrpc: worker %d: provision: %w", o.Index, err)
	}
	cfg := Config{Shards: o.Shards, Engine: engine.Config{PlanCacheCap: o.PlanCacheMax}}
	w, err := NewWorker(p, o.Index, cfg)
	if err != nil {
		return err
	}
	defer w.Close()
	return w.Serve(l)
}

// Fleet forks and supervises the worker processes of one deployment: the
// same binary re-exec'd in -worker mode, each serving a Unix socket in a
// private temp directory. The fleet listens on every socket itself before
// forking and hands the listener down as an inherited descriptor, holding
// its own copy open for its whole life, so a worker's socket accepts
// connections from the moment NewFleet returns — while the worker is still
// provisioning, and across a crash and its respawn, whose replacement
// inherits the same listener. A worker that dies while the fleet is open
// is respawned and reported through onUp, so the coordinator can Reattach
// and resync it; until then its sources divert to the cold tier.
type Fleet struct {
	opts WorkerOpts // template; Index filled per worker
	dir  string
	onUp func(worker int)
	// ls[i] is worker i's listener and files[i] the descriptor of it every
	// process of worker i inherits; both are closed by Close.
	ls    []net.Listener
	files []*os.File

	mu      sync.Mutex
	procs   []*exec.Cmd //rbpc:guardedby mu
	closing bool        //rbpc:guardedby mu
	// unreaped counts the started processes whose watcher is still in
	// Wait; Close waits on it rather than calling Wait a second time.
	unreaped sync.WaitGroup

	restarts atomic.Int64
}

var errFleetClosing = errors.New("shardrpc: fleet is closing")

// NewFleet listens on one socket per worker and spawns Shards worker
// processes from the template spec. onUp (optional) is called from the
// watcher goroutine each time a crashed worker has been respawned — the
// caller reattaches there. A dial succeeds as soon as NewFleet returns; the
// worker answers it (the attach hello) once it has provisioned.
func NewFleet(o WorkerOpts, onUp func(worker int)) (*Fleet, error) {
	// Unix socket paths are capped at ~108 bytes; the system temp dir
	// plus "rbpc-w*/w<N>.sock" stays well under it.
	dir, err := os.MkdirTemp("", "rbpc-w")
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		opts: o, dir: dir, onUp: onUp,
		ls: make([]net.Listener, o.Shards), files: make([]*os.File, o.Shards),
		procs: make([]*exec.Cmd, o.Shards),
	}
	for i := 0; i < o.Shards; i++ {
		if f.ls[i], err = net.Listen("unix", f.socket(i)); err != nil {
			f.Close()
			return nil, err
		}
		if f.files[i], err = f.ls[i].(*net.UnixListener).File(); err != nil {
			f.Close()
			return nil, err
		}
	}
	for i := 0; i < o.Shards; i++ {
		if err := f.spawn(i); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// socket returns worker i's socket path.
func (f *Fleet) socket(i int) string {
	return filepath.Join(f.dir, fmt.Sprintf("w%d.sock", i))
}

// Dial is the coordinator-facing Dialer over the fleet's sockets. The
// fleet's own listener makes it succeed while the fleet is open, whether
// worker i is provisioning, serving or being respawned; the attach
// handshake on the connection waits for the worker.
func (f *Fleet) Dial(i int) (net.Conn, error) {
	return net.DialTimeout("unix", f.socket(i), 2*time.Second)
}

// Restarts counts workers respawned after a crash.
func (f *Fleet) Restarts() int64 { return f.restarts.Load() }

// Kill terminates worker i's process (the crash-recovery demo); the
// watcher respawns it and fires onUp.
func (f *Fleet) Kill(i int) error {
	f.mu.Lock()
	cmd := f.procs[i]
	f.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("shardrpc: fleet worker %d not running", i)
	}
	return cmd.Process.Kill()
}

// spawn forks worker i and installs its crash watcher. The closing check
// and the start share mu with Close's kill sweep, so no process is started
// behind it.
func (f *Fleet) spawn(i int) error {
	wo := f.opts
	wo.Index = i
	cmd := exec.Command(os.Args[0], "-worker", wo.Encode())
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.ExtraFiles = []*os.File{f.files[i]} // descriptor listenerFD in the child
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closing {
		return errFleetClosing
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	f.procs[i] = cmd
	f.unreaped.Add(1)
	go f.watch(i, cmd)
	return nil
}

// watch reaps worker i and respawns it unless the fleet is closing.
func (f *Fleet) watch(i int, cmd *exec.Cmd) {
	cmd.Wait()
	err := f.spawn(i)
	// The replacement is counted by now, so Close never sees zero between
	// a worker and its successor; onUp may take a dial budget and is not
	// waited for.
	f.unreaped.Done()
	if err == errFleetClosing {
		return
	}
	f.restarts.Add(1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardrpc: fleet: respawn worker %d: %v\n", i, err)
		return
	}
	if f.onUp != nil {
		f.onUp(i)
	}
}

// Close kills every worker, waits until each has been reaped, closes the
// listeners — a connection still queued on one is refused — and removes
// the socket directory. Idempotent.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closing {
		f.mu.Unlock()
		return
	}
	f.closing = true
	for _, cmd := range f.procs {
		if cmd != nil {
			cmd.Process.Kill()
		}
	}
	f.mu.Unlock()
	f.unreaped.Wait()
	for i := range f.ls {
		if f.files[i] != nil {
			f.files[i].Close()
		}
		if f.ls[i] != nil {
			f.ls[i].Close()
		}
	}
	os.RemoveAll(f.dir)
}
