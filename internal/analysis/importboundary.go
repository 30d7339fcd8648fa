package analysis

// importboundary enforces the package layering: the execution planner
// (internal/dsa) is reachable through the pkg/tcq facade and the few
// engine-adjacent internals, never from binaries or examples; the
// serving layer sits above the cluster layer, never below it; the boxed
// relational algebra stays off the serving path; and the metrics
// exporter stays zero-dependency. Each rule is a bannedcall rule over
// imports: the import is banned across the module, and its allowlist is
// the rule's exempt scope, so a new legitimate importer is a
// deliberate one-line change here instead of an accidental import that
// quietly collapses a layer.

// importBoundaries is the project's layering contract. Test files are
// exempt wholesale (the loader never parses them), and internal/oracle is
// the reason: its non-test half imports pkg/tcq only, while its tests
// stand one generation up through every layer at once — facade, store
// directory, server, cluster — to hold them to each other.
var importBoundaries = []*bannedCall{
	{
		// First, so a module import here is reported once, by this rule.
		imports: scope{"repro/..."},
		scope:   scope{"repro/internal/metrics"},
		msg:     "the Prometheus exporter is zero-dependency by contract; importing the module from it risks cycles and breaks that promise",
	},
	{
		imports: scope{"repro/internal/dsa"},
		scope:   scope{"repro/..."},
		exempt: scope{
			"repro/pkg/tcq",          // the public facade over the planner
			"repro/internal/server",  // the serving executor behind the facade
			"repro/internal/cluster", // maps dsa sentinels across the wire
			"repro/internal/bench",   // the paper's §4 experiments measure the planner directly
			"repro/internal/phe",     // paper-era harness predating the facade
			"repro/internal/sim",     // paper-era harness predating the facade
			"repro/internal/store",   // (de)serializes built stores: fragments and complementary tables
		},
		msg: "the planner is internal; binaries and examples go through pkg/tcq",
	},
	{
		imports: scope{"repro/internal/store"},
		scope:   scope{"repro/..."},
		exempt: scope{
			"repro/pkg/tcq", // the persistence facade (snapshots, durable applies)
		},
		msg: "the persistence subsystem is reached through pkg/tcq's snapshot and store API; direct use would bypass the journal ordering the facade enforces",
	},
	{
		imports: scope{"repro/internal/server"},
		scope:   scope{"repro/..."},
		exempt: scope{
			"repro/cmd/tcserver",     // the serving daemon
			"repro/internal/loadgen", // the load driver speaks the server's /v1 wire types
		},
		msg: "the serving layer is the top of the stack; lower layers importing it would invert the architecture",
	},
	{
		imports: scope{"repro/internal/loadgen"},
		scope:   scope{"repro/..."},
		exempt: scope{
			"repro/cmd/tcload", // the load driver's CLI
		},
		msg: "the load driver is an HTTP client of a running server; nothing a server is built from may depend on it",
	},
	{
		imports: scope{"repro/internal/cluster"},
		scope:   scope{"repro/..."},
		exempt: scope{
			"repro/internal/server", // owns the scatter half of scatter-gather
			"repro/pkg/tcq",         // re-exports the typed peer-error taxonomy
			"repro/cmd/tcserver",    // parses -peers / -fault-script flags
		},
		msg: "cluster sits under the serving layer; new importers are a deliberate layering decision",
	},
	{
		imports: scope{"repro/internal/relation"},
		scope:   scope{"repro/..."},
		exempt: scope{
			"repro/internal/tc",      // the relational closures, and tc.CostMatrix's relation adapter
			"repro/internal/dsa",     // the semi-naive arm and the harness's relation-typed seams
			"repro/internal/cluster", // the harness's wire seams: NewLegResponse and Facts
			"repro/internal/sim",     // charges the semi-naive engine on the unfragmented graph
			"repro/cmd/tcclosure",    // closures over a graph file's edge relation
			"repro/examples/partsdb", // the relational algebra as a library
			"repro/benchmarks",       // the ledger's walker and probes hold leg tables as relations until it reads spans
		},
		msg: "leg tables are tc.CostMatrix from kernel to cache to wire; boxed relations stay with the reference engines and the harness's seams",
	},
}

// ImportBoundary returns the layering analyzer. It runs untyped:
// imports need no types, and an import that inverts a layer makes an
// import cycle, which no package on it survives type-checking.
func ImportBoundary() *Analyzer {
	return &Analyzer{
		Name: "importboundary",
		Doc:  "enforce the package layering: internal/dsa behind pkg/tcq, server above cluster, internal/relation off the serving path, metrics zero-dependency",
		Run:  runBannedCall(importBoundaries),
	}
}
