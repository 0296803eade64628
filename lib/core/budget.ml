module Metrics = Flames_obs.Metrics

(* Trips are first-class observables: the degraded-result story only
   works operationally if every budget stop is visible in the registry. *)
let trips_total =
  Metrics.counter "flames_budget_trips_total"
    ~help:"Budget checkpoints that stopped a stage (all trip kinds)"

let trip_seconds =
  Metrics.histogram "flames_budget_trip_seconds"
    ~help:"Wall time elapsed into a budgeted run when a quota tripped"

type trip = Wall | Cancel | Steps | Envs | Candidates

let trip_label = function
  | Wall -> "wall"
  | Cancel -> "cancel"
  | Steps -> "steps"
  | Envs -> "envs"
  | Candidates -> "candidates"

type spec = {
  wall : float option;
  max_steps : int option;
  max_envs : int option;
  max_candidates : int option;
}

let unlimited =
  { wall = None; max_steps = None; max_envs = None; max_candidates = None }

let spec ?wall ?max_steps ?max_envs ?max_candidates () =
  Option.iter
    (fun w -> if not (Float.is_finite w) || w < 0. then
        invalid_arg "Budget.spec: wall must be finite and >= 0")
    wall;
  List.iter
    (Option.iter (fun n ->
         if n < 0 then invalid_arg "Budget.spec: quotas must be >= 0"))
    [ max_steps; max_envs; max_candidates ];
  { wall; max_steps; max_envs; max_candidates }

type t = {
  deadline : float option;  (* absolute, seconds since the epoch *)
  started : float;
  max_steps : int option;
  max_envs : int option;
  max_candidates : int option;
  cancelled : bool Atomic.t;  (* the only cross-domain field *)
  mutable steps : int;
  mutable envs : int;
  mutable candidates : int;
  mutable wall_checks : int;  (* deadline polled 1-in-32 charges *)
  mutable trips : trip list;  (* reverse order of occurrence *)
}

let now () = Unix.gettimeofday ()

let start s =
  let started = now () in
  {
    deadline = Option.map (fun w -> started +. w) s.wall;
    started;
    max_steps = s.max_steps;
    max_envs = s.max_envs;
    max_candidates = s.max_candidates;
    cancelled = Atomic.make false;
    steps = 0;
    envs = 0;
    candidates = 0;
    wall_checks = 0;
    trips = [];
  }

let fresh () = start unlimited

let trip t kind =
  if not (List.mem kind t.trips) then begin
    t.trips <- kind :: t.trips;
    Metrics.incr trips_total;
    Metrics.observe trip_seconds (now () -. t.started)
  end

let cancel t = Atomic.set t.cancelled true

(* The wall clock is only read on every 32nd charge: checkpoints sit on
   propagation and enumeration hot loops, and a gettimeofday per step
   would cost more than the work being metered. *)
let wall_ok t =
  if Atomic.get t.cancelled then begin
    trip t Cancel;
    false
  end
  else
    match t.deadline with
    | None -> true
    | Some d ->
      t.wall_checks <- t.wall_checks + 1;
      if t.wall_checks land 31 <> 1 then not (List.mem Wall t.trips)
      else if now () >= d then begin
        trip t Wall;
        false
      end
      else true

let over limit used = match limit with None -> false | Some n -> used >= n

let charge_steps t n =
  t.steps <- t.steps + n;
  if over t.max_steps t.steps then begin
    trip t Steps;
    false
  end
  else wall_ok t

let charge_envs t n =
  t.envs <- t.envs + n;
  if over t.max_envs t.envs then begin
    trip t Envs;
    false
  end
  else wall_ok t

let charge_candidates t n =
  t.candidates <- t.candidates + n;
  if over t.max_candidates t.candidates then begin
    trip t Candidates;
    false
  end
  else wall_ok t

let ok t = wall_ok t && t.trips = []
let quota_candidates t = t.max_candidates
let trips t = List.rev t.trips
let tripped t = t.trips <> []

let meters_propagation t =
  t.max_steps <> None || t.max_envs <> None || Atomic.get t.cancelled
let cancelled t = Atomic.get t.cancelled
let elapsed t = now () -. t.started

let pp_trip ppf k = Format.pp_print_string ppf (trip_label k)

let pp_trips ppf = function
  | [] -> Format.pp_print_string ppf "none"
  | ts ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
      pp_trip ppf ts

(* The closure handed down to the budget-blind layers (Hitting, Atms):
   they only need a stop/go answer, not the taxonomy. *)
let interrupt_of t () = not (wall_ok t) || tripped t
