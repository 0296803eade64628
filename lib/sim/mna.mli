(** DC operating-point simulator by modified nodal analysis.

    Solves the circuit at its nominal (centroid) parameter values.
    Nonlinear devices use piecewise-linear models whose operating regions
    are found by fixed-point iteration:

    - BJT: active ([Vbe] drop, [Ic = β·Ib]), cutoff (no conduction) or
      saturated ([Vbe] and [Vce,sat = 0.2 V] drops);
    - diode: conducting (fixed forward drop) or blocked.

    This substrate plays the role of the paper's physical test bench: it
    produces the "measured" values fed to the diagnosis engine. *)

type bjt_region = Active | Cutoff | Saturated

type solution = {
  voltages : (string * float) list;  (** node → voltage, ground at 0 *)
  currents : (string * float) list;
      (** two-terminal component → current (p→n); for a BJT the base
          current under name ["<name>.b"] and collector current
          ["<name>.c"] *)
  regions : (string * bjt_region) list;  (** operating region per BJT *)
}

exception No_convergence of string
(** The piecewise-linear region iteration cycled (pathological circuit). *)

type sweep
(** Factor-reuse context for solving many structurally identical
    circuits (a parameter sweep).  Caches LU factors of the first
    matrix seen per device-region assignment; a later solve under the
    same assignment with the same matrix (only the right-hand side
    changed) re-solves against those factors, bit-identically; any
    other matrix is solved in full.  Every answer is bit-identical to
    an unshared solve.  Single-domain, like the budget it typically
    accompanies. *)

val sweep : unit -> sweep
(** A fresh, empty sweep context. *)

val solve : ?sweep:sweep -> Flames_circuit.Netlist.t -> solution
(** [solve netlist] finds the DC operating point.  With [?sweep], LU
    factors are reused across calls sharing the context (see {!sweep});
    without it, every call factorises from scratch, as before.
    @raise No_convergence, or {!Linalg.Singular} on a floating circuit. *)

val voltage : solution -> string -> float
(** @raise Not_found for an unknown node (ground returns 0). *)

val current : solution -> string -> float
(** @raise Not_found for an unknown component/terminal key. *)

val region : solution -> string -> bjt_region
val pp_region : Format.formatter -> bjt_region -> unit
val pp : Format.formatter -> solution -> unit
