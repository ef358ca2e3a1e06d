package cluster

import (
	"errors"
	"fmt"
	"slices"

	"megadc/internal/health"
)

// Identifier types. Distinct types prevent accidentally mixing ID spaces.
type (
	// ServerID identifies a physical server.
	ServerID int
	// VMID identifies a virtual machine instance.
	VMID int
	// AppID identifies a hosted application (roughly, a website).
	AppID int
	// PodID identifies a logical server pod.
	PodID int
)

// NoPod is the PodID of a server not assigned to any pod.
const NoPod PodID = -1

// VMState is the lifecycle state of a VM instance.
type VMState int

// VM lifecycle states.
const (
	VMDeploying VMState = iota // being created; not yet serving
	VMRunning                  // serving traffic
	VMStopped                  // removed from service
)

func (s VMState) String() string {
	switch s {
	case VMDeploying:
		return "deploying"
	case VMRunning:
		return "running"
	case VMStopped:
		return "stopped"
	}
	return fmt.Sprintf("VMState(%d)", int(s))
}

// Server is a physical machine with hard resource capacity.
type Server struct {
	ID       ServerID
	Pod      PodID
	Capacity Resources

	// Health tracks the failure/repair lifecycle. It is orthogonal to
	// energy state: a consolidator-powered-off server is Healthy with
	// zero capacity, while a failed server keeps its capacity until the
	// failure is detected.
	Health health.State

	used Resources
	vms  map[VMID]*VM
}

// Serving reports whether the server is healthy enough to host work.
func (s *Server) Serving() bool { return s.Health.Serving() }

// Used returns the sum of slices of VMs currently placed on the server.
func (s *Server) Used() Resources { return s.used }

// Free returns the remaining capacity.
func (s *Server) Free() Resources { return s.Capacity.Sub(s.used) }

// Utilization returns the maximum dimension-wise used/capacity fraction.
func (s *Server) Utilization() float64 { return s.used.MaxFraction(s.Capacity) }

// NumVMs returns the number of VMs placed on the server.
func (s *Server) NumVMs() int { return len(s.vms) }

// VMIDs returns the IDs of VMs on the server in ascending order.
func (s *Server) VMIDs() []VMID {
	ids := make([]VMID, 0, len(s.vms))
	for id := range s.vms {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// VM is a virtual machine instance of one application, holding a hard
// resource slice on one server.
type VM struct {
	ID     VMID
	App    AppID
	Server ServerID
	Slice  Resources // hard allocation; can be hot-resized
	Demand Resources // current client demand routed to this VM
	State  VMState
}

// Served returns the demand actually satisfied: the component-wise minimum
// of demand and slice. A VM that is not running serves nothing.
func (v *VM) Served() Resources {
	if v.State != VMRunning {
		return Resources{}
	}
	return v.Demand.Min(v.Slice)
}

// Overload returns how far demand exceeds the slice in the most-stressed
// dimension (≥ 1 means overloaded).
func (v *VM) Overload() float64 { return v.Demand.MaxFraction(v.Slice) }

// Application is a hosted elastic Internet application ("website").
type Application struct {
	ID           AppID
	Name         string
	DefaultSlice Resources // slice given to a new instance
	vms          map[VMID]*VM
}

// NumInstances returns the number of live (non-stopped) VM instances.
func (a *Application) NumInstances() int { return len(a.vms) }

// VMIDs returns the application's instance IDs in ascending order.
func (a *Application) VMIDs() []VMID {
	ids := make([]VMID, 0, len(a.vms))
	for id := range a.vms {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Pod is a logical group of servers managed by one pod manager. Pods are
// formed by configuration, not physical adjacency, so servers can be
// transferred between pods (paper Section IV-C).
type Pod struct {
	ID      PodID
	servers map[ServerID]*Server
}

// NumServers returns the number of servers in the pod.
func (p *Pod) NumServers() int { return len(p.servers) }

// ServerIDs returns the pod's server IDs in ascending order.
func (p *Pod) ServerIDs() []ServerID {
	ids := make([]ServerID, 0, len(p.servers))
	for id := range p.servers {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Errors returned by cluster mutations.
var (
	ErrNotFound     = errors.New("cluster: not found")
	ErrInsufficient = errors.New("cluster: insufficient capacity")
	ErrBadState     = errors.New("cluster: operation invalid in current state")
)

// Cluster is the registry of pods, servers, applications, and VMs, and the
// home of all state-mutating primitives. Higher layers (pod managers, the
// global manager) sequence these primitives and attach latencies.
//
// IDs are assigned densely in creation order and never reused, so the
// registries are flat slices indexed by ID (nil = removed) instead of
// maps: every lookup on the demand-propagation hot path is a slice
// index, and ID-ordered iteration needs no sort (DESIGN.md §13).
type Cluster struct {
	pods    []*Pod
	servers []*Server
	apps    []*Application
	vms     []*VM

	numVMs int // live (non-nil) entries in vms
}

// New returns an empty cluster.
func New() *Cluster {
	return &Cluster{}
}

// AddPod creates a new empty pod.
func (c *Cluster) AddPod() *Pod {
	p := &Pod{ID: PodID(len(c.pods)), servers: make(map[ServerID]*Server)}
	c.pods = append(c.pods, p)
	return p
}

// AddServer creates a server with the given capacity inside pod. Pass
// NoPod to create an unassigned server.
func (c *Cluster) AddServer(pod PodID, capacity Resources) (*Server, error) {
	if !capacity.NonNegative() {
		return nil, fmt.Errorf("%w: negative capacity %v", ErrBadState, capacity)
	}
	s := &Server{ID: ServerID(len(c.servers)), Pod: NoPod, Capacity: capacity, vms: make(map[VMID]*VM)}
	if pod != NoPod {
		p := c.Pod(pod)
		if p == nil {
			return nil, fmt.Errorf("%w: pod %d", ErrNotFound, pod)
		}
		s.Pod = pod
		p.servers[s.ID] = s
	}
	c.servers = append(c.servers, s)
	return s, nil
}

// AddApp registers an application with a default per-instance slice.
func (c *Cluster) AddApp(name string, defaultSlice Resources) *Application {
	a := &Application{ID: AppID(len(c.apps)), Name: name, DefaultSlice: defaultSlice, vms: make(map[VMID]*VM)}
	c.apps = append(c.apps, a)
	return a
}

// Pod returns the pod with the given ID, or nil.
func (c *Cluster) Pod(id PodID) *Pod {
	if id < 0 || int(id) >= len(c.pods) {
		return nil
	}
	return c.pods[id]
}

// Server returns the server with the given ID, or nil.
func (c *Cluster) Server(id ServerID) *Server {
	if id < 0 || int(id) >= len(c.servers) {
		return nil
	}
	return c.servers[id]
}

// App returns the application with the given ID, or nil.
func (c *Cluster) App(id AppID) *Application {
	if id < 0 || int(id) >= len(c.apps) {
		return nil
	}
	return c.apps[id]
}

// VM returns the VM with the given ID, or nil.
func (c *Cluster) VM(id VMID) *VM {
	if id < 0 || int(id) >= len(c.vms) {
		return nil
	}
	return c.vms[id]
}

// NumApps returns the number of registered applications.
func (c *Cluster) NumApps() int { return len(c.apps) }

// PodIDs returns all pod IDs in ascending order.
func (c *Cluster) PodIDs() []PodID {
	ids := make([]PodID, 0, len(c.pods))
	for _, p := range c.pods {
		if p != nil {
			ids = append(ids, p.ID)
		}
	}
	return ids
}

// AppIDs returns all application IDs in ascending order.
func (c *Cluster) AppIDs() []AppID {
	ids := make([]AppID, 0, len(c.apps))
	for _, a := range c.apps {
		if a != nil {
			ids = append(ids, a.ID)
		}
	}
	return ids
}

// ServerIDs returns all server IDs in ascending order.
func (c *Cluster) ServerIDs() []ServerID {
	ids := make([]ServerID, 0, len(c.servers))
	for _, s := range c.servers {
		if s != nil {
			ids = append(ids, s.ID)
		}
	}
	return ids
}

// VMIDs returns all VM IDs in ascending order.
func (c *Cluster) VMIDs() []VMID {
	ids := make([]VMID, 0, c.numVMs)
	for _, v := range c.vms {
		if v != nil {
			ids = append(ids, v.ID)
		}
	}
	return ids
}

// NumVMs returns the number of live VMs in the cluster.
func (c *Cluster) NumVMs() int { return c.numVMs }

// PlaceVM creates a VM instance of app on server with the given slice.
// The new VM starts in VMDeploying state; call Start to begin serving.
func (c *Cluster) PlaceVM(app AppID, server ServerID, slice Resources) (*VM, error) {
	a := c.App(app)
	if a == nil {
		return nil, fmt.Errorf("%w: app %d", ErrNotFound, app)
	}
	s := c.Server(server)
	if s == nil {
		return nil, fmt.Errorf("%w: server %d", ErrNotFound, server)
	}
	if !slice.NonNegative() {
		return nil, fmt.Errorf("%w: negative slice %v", ErrBadState, slice)
	}
	if !s.used.Add(slice).Fits(s.Capacity) {
		return nil, fmt.Errorf("%w: server %d free %v, slice %v", ErrInsufficient, server, s.Free(), slice)
	}
	v := &VM{ID: VMID(len(c.vms)), App: app, Server: server, Slice: slice, State: VMDeploying}
	c.vms = append(c.vms, v)
	c.numVMs++
	a.vms[v.ID] = v
	s.vms[v.ID] = v
	s.used = s.used.Add(slice)
	return v, nil
}

// Start transitions a deploying VM to running.
func (c *Cluster) Start(vm VMID) error {
	v := c.VM(vm)
	if v == nil {
		return fmt.Errorf("%w: vm %d", ErrNotFound, vm)
	}
	if v.State != VMDeploying {
		return fmt.Errorf("%w: vm %d is %v", ErrBadState, vm, v.State)
	}
	v.State = VMRunning
	return nil
}

// RemoveVM stops and deletes a VM, releasing its slice. The VM's ID is
// never reused.
func (c *Cluster) RemoveVM(vm VMID) error {
	v := c.VM(vm)
	if v == nil {
		return fmt.Errorf("%w: vm %d", ErrNotFound, vm)
	}
	s := c.servers[v.Server]
	s.used = s.used.Sub(v.Slice)
	delete(s.vms, vm)
	delete(c.apps[v.App].vms, vm)
	c.vms[vm] = nil
	c.numVMs--
	v.State = VMStopped
	return nil
}

// ResizeVM hot-adjusts the VM's hard slice (paper knob E, Section IV-E).
// Growth must fit in the server's free capacity.
func (c *Cluster) ResizeVM(vm VMID, slice Resources) error {
	v := c.VM(vm)
	if v == nil {
		return fmt.Errorf("%w: vm %d", ErrNotFound, vm)
	}
	if !slice.NonNegative() {
		return fmt.Errorf("%w: negative slice %v", ErrBadState, slice)
	}
	s := c.servers[v.Server]
	newUsed := s.used.Sub(v.Slice).Add(slice)
	if !newUsed.Fits(s.Capacity) {
		return fmt.Errorf("%w: server %d cannot hold resize to %v", ErrInsufficient, v.Server, slice)
	}
	s.used = newUsed
	v.Slice = slice
	return nil
}

// MigrateVM moves a VM to another server, keeping its slice. The caller
// is responsible for modeling migration latency; the state change here is
// atomic. The VM keeps serving (live migration) and ends in VMRunning.
func (c *Cluster) MigrateVM(vm VMID, to ServerID) error {
	v := c.VM(vm)
	if v == nil {
		return fmt.Errorf("%w: vm %d", ErrNotFound, vm)
	}
	dst := c.Server(to)
	if dst == nil {
		return fmt.Errorf("%w: server %d", ErrNotFound, to)
	}
	if to == v.Server {
		return nil
	}
	if !dst.used.Add(v.Slice).Fits(dst.Capacity) {
		return fmt.Errorf("%w: server %d free %v, slice %v", ErrInsufficient, to, dst.Free(), v.Slice)
	}
	src := c.servers[v.Server]
	src.used = src.used.Sub(v.Slice)
	delete(src.vms, vm)
	dst.used = dst.used.Add(v.Slice)
	dst.vms[vm] = v
	v.Server = to
	return nil
}

// TransferServer moves a server (and any VMs it hosts) to another pod.
// This is the paper's server-transfer knob (Section IV-C); transferring a
// loaded server is exactly the elephant-pod mitigation of Section IV-C/D.
func (c *Cluster) TransferServer(server ServerID, to PodID) error {
	s := c.Server(server)
	if s == nil {
		return fmt.Errorf("%w: server %d", ErrNotFound, server)
	}
	dst := c.Pod(to)
	if dst == nil {
		return fmt.Errorf("%w: pod %d", ErrNotFound, to)
	}
	if s.Pod == to {
		return nil
	}
	if s.Pod != NoPod {
		delete(c.pods[s.Pod].servers, server)
	}
	dst.servers[server] = s
	s.Pod = to
	return nil
}

// PodUsed returns the summed used resources of the pod's servers.
// Aggregation iterates in sorted ID order: float sums must not depend
// on map iteration order, or identically seeded runs diverge at the
// last bit.
func (c *Cluster) PodUsed(pod PodID) Resources {
	p := c.Pod(pod)
	if p == nil {
		return Resources{}
	}
	var u Resources
	for _, id := range p.ServerIDs() {
		u = u.Add(p.servers[id].used)
	}
	return u
}

// PodCapacity returns the summed capacity of the pod's servers.
func (c *Cluster) PodCapacity(pod PodID) Resources {
	p := c.Pod(pod)
	if p == nil {
		return Resources{}
	}
	var u Resources
	for _, id := range p.ServerIDs() {
		u = u.Add(p.servers[id].Capacity)
	}
	return u
}

// PodDemand returns the summed client demand on VMs hosted in the pod.
func (c *Cluster) PodDemand(pod PodID) Resources {
	p := c.Pod(pod)
	if p == nil {
		return Resources{}
	}
	var d Resources
	for _, sid := range p.ServerIDs() {
		s := p.servers[sid]
		for _, vid := range s.VMIDs() {
			d = d.Add(s.vms[vid].Demand)
		}
	}
	return d
}

// PodNumVMs returns the number of VMs hosted in the pod.
func (c *Cluster) PodNumVMs(pod PodID) int {
	p := c.Pod(pod)
	if p == nil {
		return 0
	}
	n := 0
	for _, s := range p.servers {
		n += len(s.vms)
	}
	return n
}

// AppVMsInPod returns the IDs of app's VMs hosted in pod, ascending.
// An application "covers" a pod when this is non-empty (paper III-A).
func (c *Cluster) AppVMsInPod(app AppID, pod PodID) []VMID {
	a := c.App(app)
	if a == nil {
		return nil
	}
	var ids []VMID
	for id, v := range a.vms {
		if s := c.servers[v.Server]; s != nil && s.Pod == pod {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// Covers reports whether app has at least one instance in pod.
func (c *Cluster) Covers(app AppID, pod PodID) bool {
	return len(c.AppVMsInPod(app, pod)) > 0
}

// approxEqual compares resource vectors with a relative tolerance that
// absorbs the floating-point drift of incremental add/subtract updates.
func approxEqual(a, b Resources) bool {
	close := func(x, y float64) bool {
		d := x - y
		if d < 0 {
			d = -d
		}
		scale := 1.0
		if ax := absf(x); ax > scale {
			scale = ax
		}
		return d <= 1e-9*scale
	}
	return close(a.CPU, b.CPU) && close(a.MemMB, b.MemMB) && close(a.NetMbps, b.NetMbps)
}

func epsilonOf(c Resources) Resources {
	return Resources{1e-9 * (1 + absf(c.CPU)), 1e-9 * (1 + absf(c.MemMB)), 1e-9 * (1 + absf(c.NetMbps))}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// CheckInvariants verifies internal consistency: per-server used equals
// the sum of its VM slices and never exceeds capacity, and all index maps
// agree. It returns the first violation found, or nil. Tests and the
// simulation harness call this after mutation sequences.
func (c *Cluster) CheckInvariants() error {
	for i, s := range c.servers {
		id := ServerID(i)
		var sum Resources
		for vid, v := range s.vms {
			if v.Server != id {
				return fmt.Errorf("vm %d on server %d claims server %d", vid, id, v.Server)
			}
			sum = sum.Add(v.Slice)
		}
		if !approxEqual(sum, s.used) {
			return fmt.Errorf("server %d used %v != sum of slices %v", id, s.used, sum)
		}
		if !s.used.Fits(s.Capacity.Add(epsilonOf(s.Capacity))) {
			return fmt.Errorf("server %d overcommitted: used %v > capacity %v", id, s.used, s.Capacity)
		}
		if s.Pod != NoPod {
			p := c.pods[s.Pod]
			if p == nil || p.servers[id] == nil {
				return fmt.Errorf("server %d claims pod %d but pod does not list it", id, s.Pod)
			}
		}
	}
	for i, p := range c.pods {
		pid := PodID(i)
		for sid, s := range p.servers {
			if s.Pod != pid {
				return fmt.Errorf("pod %d lists server %d which claims pod %d", pid, sid, s.Pod)
			}
		}
	}
	for i, v := range c.vms {
		if v == nil {
			continue // removed VM; its ID is retired, never reused
		}
		vid := VMID(i)
		a := c.App(v.App)
		if a == nil || a.vms[vid] == nil {
			return fmt.Errorf("vm %d claims app %d but app does not list it", vid, v.App)
		}
		s := c.Server(v.Server)
		if s == nil || s.vms[vid] == nil {
			return fmt.Errorf("vm %d claims server %d but server does not list it", vid, v.Server)
		}
	}
	return nil
}
