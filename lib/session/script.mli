(** Troubleshooting scripts: the text protocol driving a {!Session}.

    One command per line; [#] starts a comment.  Directives set up the
    bench circuit, commands drive the session:

    {v
    circuit three_stage_amplifier   # builtin circuit (must come first)
    fault r5.R=short                # ground truth for later `probe`s
    imprecision 0.002               # relative measurement imprecision
    probe v1                        # simulate measuring node v1
    measure n2 11.25 0.05           # explicit measurement (center spread)
    next                            # recommend the next test point
    retract 2                       # drop measurement id 2
    refine 1 11.3 0.02              # narrow measurement id 1 in place
    diagnoses                       # print the ranked diagnosis
    status                          # session state summary
    quit
    v}

    The same interpreter backs [flames_cli troubleshoot] (stdin or
    script file) and the [corpus/sessions] golden transcripts. *)

type command =
  | Circuit of string
  | Fault of string  (** raw [comp.param=mode] spec, parsed at run time *)
  | Imprecision of float
  | Probe of string  (** node name *)
  | Measure of string * float * float option  (** node, center, spread *)
  | Observe of Flames_circuit.Quantity.t * Flames_fuzzy.Interval.t
      (** a measurement with an explicit trapezoid, no fuzzification —
          text form [observe <node> <m1> <m2> <alpha> <beta>] (floats may
          be hex literals); the journal replays through this so recovered
          intervals are bit-exact *)
  | Retract of int
  | Refine of int * float * float option
  | Refine_interval of int * Flames_fuzzy.Interval.t
      (** [refine-interval <id> <m1> <m2> <alpha> <beta>] — the
          explicit-trapezoid sibling of [Refine], used by replay *)
  | Diagnoses
  | Next
  | Status
  | Quit

val parse_line : string -> (command option, string) result
(** [Ok None] on blank/comment lines. *)

val parse : string -> ((int * command) list, string) result
(** Whole script to line-numbered commands; the error carries the
    offending line number. *)

val run :
  ?echo:bool ->
  ?print:(string -> unit) ->
  ?session_of:(Flames_circuit.Netlist.t -> Session.t) ->
  (int * command) list ->
  (Session.t option, string) result
(** Interpret the commands in order.  [?print] (default stdout) receives
    every line of output; [?echo] (default [false]) prefixes each
    command as [> cmd] before its output, for transcripts.
    [?session_of] (default [Session.create]) builds the session when the
    [circuit] directive executes, letting callers thread budgets or
    fault points.  Returns the final session (for inspection or
    benchmarking), or an error naming the line that failed. *)

val replay :
  session:Session.t -> command list -> (unit, string) result
(** Interpret commands against an already-open session — the journal
    recovery entry point.  Identical semantics to {!run} (same [exec]
    path), but no [circuit] directive is needed or expected and output
    is discarded.  Stops at the first failing command. *)
