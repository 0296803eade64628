(** Minimal hitting sets.

    Diagnosis candidates are the minimal hitting sets of the family of
    minimal conflicts (Reiter 1987, used by GDE and the paper's section 6).
    The implementation is a breadth-first HS-tree expansion with
    subset-minimality pruning, adequate for the conflict families produced
    by circuit diagnosis (tens of conflicts over tens of assumptions). *)

val minimal_hitting_sets :
  ?limit:int -> ?presort:bool -> ?interrupt:(unit -> bool) -> Env.t list ->
  Env.t list
(** [minimal_hitting_sets conflicts] enumerates all subset-minimal
    environments intersecting every conflict.

    - The empty conflict family has the single hitting set [Env.empty].
    - A family containing the empty conflict has no hitting set: [[]].
    - [limit] caps the number of returned sets (default 10_000), a guard
      against pathological families.
    - [presort] (default [true]) expands conflicts in ascending
      cardinality order via {!expansion_order}, so small conflicts force
      choices early and the completed-set subsumption prune discards more
      of the frontier.  The result is the same either way; the flag
      exists for the prune regression test.
    - [interrupt] is a cooperative budget check-point, polled once per
      frontier pop: when it answers [true] the enumeration stops and the
      sets completed so far are returned.  It is only honoured once at
      least one set has completed, so a tripped budget still yields a
      candidate whenever any hitting set exists.  Because expansion is
      breadth-first, every returned set is a genuine minimal hitting set
      even when enumeration stops early — truncation loses completeness,
      never soundness.

    Results are sorted by cardinality then lexicographically. *)

val enumerate :
  ?limit:int -> ?presort:bool -> ?interrupt:(unit -> bool) -> Env.t list ->
  Env.t list * bool
(** As {!minimal_hitting_sets}, also reporting whether enumeration was
    truncated (by [interrupt] or [limit]) before the frontier drained. *)

val expansion_order : Env.t list -> Env.t list
(** Deduplicated conflicts in the order the expansion visits them:
    ascending cardinality, ties in [Env.compare] order. *)

val hits_all : Env.t -> Env.t list -> bool
(** [hits_all candidate conflicts] checks the defining property. *)
