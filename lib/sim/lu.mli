(** Reusable LU factors for right-hand-side sweeps.

    {!factor} records the exact elimination trace of
    {!Linalg.solve_opt} — same relative pivot threshold, same row-swap
    sequence, same multiplier skip — so {!resolve} on a new right-hand
    side reproduces [Linalg.solve_opt a b] {e bit for bit}.  That makes
    factor reuse invisible to every downstream comparison: a sweep that
    re-solves many vectors against one matrix returns the same floats
    it would have returned solving each system from scratch. *)

type t

val factor : float array array -> (t, [ `Singular ]) result
(** Factorise once.  Mirrors [Linalg.solve_opt]'s singularity
    behaviour: [Error `Singular] exactly when the full solve would have
    failed. *)

val resolve : t -> float array -> float array
(** Solve for one right-hand side against stored factors.
    [resolve (factor a) b] is bit-identical to [Linalg.solve_opt a b]. *)
