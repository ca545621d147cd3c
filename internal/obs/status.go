package obs

// Status is the live snapshot served at /status. It keeps the determinism
// rule visible in the wire format: Deterministic holds fields that are
// pure functions of the analysed program, the options, and the journal
// contents (two pollers reading the same journal bytes get the same
// values); Volatile holds wall-clock and fleet data that depends on
// scheduling. There is deliberately no ETA — the model checker's runtime
// is not predictable enough to promise one.
type Status struct {
	Deterministic StatusCore     `json:"deterministic"`
	Volatile      StatusVolatile `json:"volatile"`
}

// StatusCore is the deterministic half of a status snapshot.
type StatusCore struct {
	// Fingerprint is the journal identity (program + deterministic
	// options) the snapshot was computed against.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Stage is the frontier stage the run is in: "pending", "ga", "mc" or
	// "done". Only generation units are journaled, so measurement has no
	// stage here: it runs after "done", while the report is assembled.
	Stage string `json:"stage"`
	// Stages lists per-stage unit progress in pipeline order.
	Stages []StageStatus `json:"stages,omitempty"`
	// Quarantined lists unit keys withdrawn from retry by the ledger.
	Quarantined []string `json:"quarantined,omitempty"`
}

// StageStatus is one stage's unit progress.
type StageStatus struct {
	Stage string `json:"stage"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// StatusVolatile is the volatile half of a status snapshot: process
// wall-clock, bus accounting, and the fleet view aggregated from worker
// telemetry sidecars.
type StatusVolatile struct {
	ElapsedMS       int64  `json:"elapsed_ms"`
	EventsPublished uint64 `json:"events_published"`
	EventsDropped   int64  `json:"events_dropped"`
	// BusStage is the most recent stage.start seen on this process's bus;
	// unlike Deterministic.Stage it needs no journal.
	BusStage string `json:"bus_stage,omitempty"`
	// InFlight is the fleet's total leased-but-incomplete unit count.
	InFlight int            `json:"in_flight,omitempty"`
	Workers  []WorkerStatus `json:"workers,omitempty"`
	// Remote lists per-agent host state for machine-spanning runs — the
	// place a degraded run shows its downgrade: a host marked "down" had
	// its leases re-leased onto the local fallback launcher.
	Remote []RemoteHost `json:"remote,omitempty"`
	// Err reports a status-computation failure (e.g. journal unreadable)
	// without taking the endpoint down.
	Err string `json:"error,omitempty"`
}

// RemoteHost is one remote agent's state as the remote launcher sees it.
type RemoteHost struct {
	Addr string `json:"addr"`
	// State is "up" or "down"; down is sticky for the run — the host
	// exhausted a lease's reconnect budget and its work went local.
	State string `json:"state"`
	// Leases counts leases routed to this host; Redials the reconnect
	// attempts its streams needed.
	Leases  int64 `json:"leases"`
	Redials int64 `json:"redials,omitempty"`
}

// WorkerStatus is one distributed worker's latest telemetry, as read from
// its sidecar file by the coordinator.
type WorkerStatus struct {
	ID string `json:"id"`
	// Done/Total count the worker's assigned units.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Appended counts records the worker has written to its journal.
	Appended int `json:"appended"`
	// AgeMS is how stale the sidecar file is — the secondary liveness
	// signal the coordinator watches alongside journal growth.
	AgeMS int64 `json:"age_ms"`
}
