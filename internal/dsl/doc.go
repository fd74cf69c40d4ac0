// Package dsl implements the textual scenario language of the GMDF
// reproduction: a front-end pipeline — parse → check → lint → load —
// that turns a .gmdf source file into the same comdes.System,
// repro.DebugConfig and target.ClusterConfig the hand-written Go
// constructors in the models package build, with positioned
// file:line:col diagnostics at every stage.
//
// # Pipeline stages
//
// Each stage has one responsibility and one error class; later stages
// assume the earlier ones passed.
//
//	stage | input          | output            | error class
//	------+----------------+-------------------+------------------------------------
//	parse | source text    | *File (AST)       | lexical/syntactic ("parse"): bad
//	      |                |                   | tokens, malformed statements; the
//	      |                |                   | parser resyncs at statement
//	      |                |                   | boundaries and reports every error
//	check | *File          | error Diagnostics | semantic ("check"): unresolved
//	      |                |                   | names (blocks, ports, actors, enum
//	      |                |                   | literals via internal/metamodel),
//	      |                |                   | kind mismatches, invalid task
//	      |                |                   | specs, embedded-expression errors
//	      |                |                   | (internal/expr, remapped to file
//	      |                |                   | coordinates), and resource bounds
//	      |                |                   | (actor/block/state counts, horizon,
//	      |                |                   | bus-schedule sanity) so the farm
//	      |                |                   | can gate user-submitted sources
//	      |                |                   | before anything runs
//	lint  | *File          | warning           | suspicious-but-legal ("lint"):
//	      |                | Diagnostics       | zero-slack deadlines, offsets
//	      |                |                   | beyond the period, unowned bus
//	      |                |                   | slots, unused enums, inputs that
//	      |                |                   | read constant zero
//	load  | checked *File  | *Scenario         | none by construction — loader
//	      |                |                   | failures on a checked file are
//	      |                |                   | bugs, returned as plain errors
//
// Diagnostics from every stage carry a byte-offset Span into the
// source; Render prints them sorted and stable as
//
//	file.gmdf:12:7: error: unknown component kind "gian"
//	    block gian trim { k = 1.0 }
//	          ^^^^
//
// so checking the same source twice yields byte-identical output (the
// CI dsl-determinism job diffs exactly this).
//
// # Grammar
//
// Tokens: identifiers [A-Za-z_][A-Za-z0-9_]*, integers, floats,
// durations (an integer with a ns/us/ms/s suffix, e.g. 10ms), quoted
// strings with \" \\ \n \t escapes, punctuation { } : , = . ->, and
// comments from # or // to end of line. Keywords are contextual: "in",
// "out", "state" and friends remain valid port and block names.
//
//	file        := "system" ident decl*
//	decl        := enum | actor | bind | environment | drive | board | bus | run
//	enum        := "enum" ident "{" ident+ "}"
//	actor       := "actor" ident "{" actorItem* "}"
//	actorItem   := "period" dur | "offset" dur | "deadline" dur
//	             | "priority" int | "on" ident | network
//	network     := "network" ident "{" netItem* "}"
//	netItem     := port | block | machine | modal | composite | wire
//	port        := ("in"|"out") ident kind        kind := "float"|"int"|"bool"
//	block       := "block" ident ident params?    # kind, instance name
//	params      := "{" (ident "=" literal)* "}"
//	literal     := int | float | string | "true" | "false"
//	machine     := "machine" ident "{" port* "initial" ident state* trans* "}"
//	state       := "state" ident "{" assign* "}"
//	assign      := ident "=" string               # output = "expr"
//	trans       := "transition" ident ":" ident "->" ident "when" string
//	               ("{" assign* "}")?             # guarded Mealy actions
//	modal       := "modal" ident "selects" ident "{" port* mode* default? "}"
//	mode        := "mode" selector ":" "block" ident ident params?
//	selector    := int | ident "." ident          # enum literal -> index+1
//	default     := "default" ":" "block" ident ident params?
//	composite   := "composite" ident "{" port* block* wire* "}"
//	wire        := "wire" endpoint "->" endpoint
//	endpoint    := "." ident | ident "." ident    # .port = network interface
//	bind        := "bind" ident ":" endpoint "->" endpoint   # actor.port pairs
//	environment := "environment" "standard"
//	drive       := "drive" ident "." ident "=" string  # expr over t (s), now (ns)
//	board       := "board" "{" ("cpu_hz" int | "baud" int
//	             | "sched" ("cooperative"|"fixed_priority"))* "}"
//	bus         := "bus" "{" busItem* "}"
//	busItem     := "slot" ident dur | "gap" dur | "jitter" dur
//	             | "loss" int | "seed" int
//	run         := "run" dur                      # scenario horizon
//
// Expressions — guards, actions, state entries and drive stimuli — are
// quoted strings in the grammar of internal/expr; their errors are
// re-anchored from expression byte offsets to file coordinates (exact
// for escape-free strings, clamped within the literal otherwise).
//
// Fidelity: examples/dsl/heating.gmdf is the committed port of
// models.Heating; loading it and running the standard environment
// produces a trace byte-identical to the constructor's (pinned by
// TestScenarioFidelityHeating and the CI dsl-determinism job).
//
// # One session recipe
//
// A Scenario is also how every front end describes a session. A built-in
// model or XML system is FromSystem's scenario, declaring only
// `environment standard`, so it runs on the standard board, environment
// and cluster for its name. Scenario.Debug builds the *repro.Debugger: one
// board for a one-node system, a TDMA cluster for a placed multi-node one.
// The gmdf CLI, the farm server and campaigns all build sessions this way
// and none of them chooses between repro.Debug and repro.DebugCluster.
// Environment serves both shapes: each drive writes on the board the
// actor runs on. Program compiles the one-node program once so many
// sessions can share it.
package dsl
