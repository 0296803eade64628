module Model = Flames_core.Model
module Schedule = Flames_core.Schedule
module Netlist = Flames_circuit.Netlist
module Component = Flames_circuit.Component
module Interval = Flames_fuzzy.Interval

(* [schedule = None] marks a key in flight: its first misser is
   compiling it outside the lock, and later callers wait on [compiled]
   instead of compiling it again. *)
type entry = { mutable schedule : Schedule.t option; mutable last_used : int }

(* The per-instance counters are atomics, not plain fields: [stats]
   reads them without taking the cache mutex, and future lock-narrowing
   must not be able to lose increments under domain contention.  Each
   bump also feeds the process-global registry counterparts
   ([Telemetry.cache_*]), which is what traces and exporters read. *)
type t = {
  mutex : Mutex.t;
  compiled : Condition.t;  (* broadcast whenever an in-flight key settles *)
  table : (string, entry) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    mutex = Mutex.create ();
    compiled = Condition.create ();
    table = Hashtbl.create (2 * capacity);
    capacity;
    tick = 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
  }

(* Floats are rendered in hex so the fingerprint is bit-exact: a 1e-9
   parameter shift (a fault, a tolerance tweak) must change the key. *)
let add_interval b (v : Interval.t) =
  Printf.bprintf b "[%h;%h;%h;%h]" v.Interval.m1 v.Interval.m2 v.Interval.alpha
    v.Interval.beta

let add_kind b (kind : Component.kind) =
  match kind with
  | Component.Resistor r ->
    Buffer.add_string b "R";
    add_interval b r
  | Component.Capacitor c ->
    Buffer.add_string b "C";
    add_interval b c
  | Component.Inductor l ->
    Buffer.add_string b "L";
    add_interval b l
  | Component.Voltage_source v ->
    Buffer.add_string b "V";
    add_interval b v
  | Component.Diode { forward_drop; max_current } ->
    Buffer.add_string b "D";
    add_interval b forward_drop;
    add_interval b max_current
  | Component.Gain_block g ->
    Buffer.add_string b "A";
    add_interval b g
  | Component.Bjt { beta; vbe } ->
    Buffer.add_string b "Q";
    add_interval b beta;
    add_interval b vbe

let add_component b (c : Component.t) =
  Printf.bprintf b "%s:" c.Component.name;
  add_kind b c.Component.kind;
  List.iter (fun (t, n) -> Printf.bprintf b ";%s=%s" t n) c.Component.nodes;
  Buffer.add_char b '|'

(* Version tag of the cached value representation.  v1 entries held
   compiled [Model.t]s; v2 holds [Schedule.t]s.  The tag leads the
   fingerprint input, so a process that ever shares serialized keys
   (or a future persistent cache) can never hand a schedule consumer a
   stale model entry: the representations live under disjoint keys and
   old-format entries simply age out through LRU eviction. *)
let schema_version = 2

let fingerprint ?schema ?(config = Model.default_config) netlist =
  let schema = match schema with Some s -> s | None -> schema_version in
  let b = Buffer.create 512 in
  Printf.bprintf b "schema:%d|" schema;
  Printf.bprintf b "net:%s;gnd:%s;ports:%s|" netlist.Netlist.name
    netlist.Netlist.ground
    (String.concat "," netlist.Netlist.ports);
  List.iter (add_component b) netlist.Netlist.components;
  Printf.bprintf b "cfg:%b;%b;%s" config.Model.node_assumptions config.Model.kcl
    (String.concat "," config.Model.trusted);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Only settled entries are victims: an in-flight key belongs to the
   domain compiling it, and its waiters. *)
let rec evict_lru cache =
  if Hashtbl.length cache.table > cache.capacity then begin
    let victim =
      Hashtbl.fold
        (fun key entry acc ->
          match (entry.schedule, acc) with
          | None, _ -> acc
          | Some _, Some (_, best) when best.last_used <= entry.last_used -> acc
          | Some _, _ -> Some (key, entry))
        cache.table None
    in
    match victim with
    | Some (key, _) ->
      Hashtbl.remove cache.table key;
      Atomic.incr cache.evictions;
      Flames_obs.Metrics.incr Telemetry.cache_evictions_total;
      evict_lru cache
    | None -> ()
  end

(* Single-flight: the first miss installs an in-flight entry under the
   lock and compiles outside it, so distinct keys still compile in
   parallel while later callers for the same key wait for that one
   compilation (and count as hits).  If it raises, the entry is
   withdrawn and a waiter retries the compilation itself. *)
let compile cache ?config netlist =
  let key = fingerprint ?config netlist in
  Mutex.lock cache.mutex;
  cache.tick <- cache.tick + 1;
  let tick = cache.tick in
  let rec lookup () =
    match Hashtbl.find_opt cache.table key with
    | Some ({ schedule = Some schedule; _ } as entry) ->
      entry.last_used <- tick;
      Atomic.incr cache.hits;
      Flames_obs.Metrics.incr Telemetry.cache_hits_total;
      Flames_obs.Context.annotate "cache" (Flames_obs.Context.Str "hit");
      Mutex.unlock cache.mutex;
      schedule
    | Some { schedule = None; _ } ->
      Condition.wait cache.compiled cache.mutex;
      lookup ()
    | None ->
      Atomic.incr cache.misses;
      Flames_obs.Metrics.incr Telemetry.cache_misses_total;
      Flames_obs.Context.annotate "cache" (Flames_obs.Context.Str "miss");
      let entry = { schedule = None; last_used = tick } in
      Hashtbl.replace cache.table key entry;
      Mutex.unlock cache.mutex;
      let settle schedule =
        Mutex.lock cache.mutex;
        (match schedule with
        | Some _ -> entry.schedule <- schedule
        | None -> (
          (* [clear] may have dropped the entry, and another miss
             installed a new one, meanwhile *)
          match Hashtbl.find_opt cache.table key with
          | Some e when e == entry -> Hashtbl.remove cache.table key
          | _ -> ()));
        evict_lru cache;
        Flames_obs.Metrics.gauge_set Telemetry.cache_resident
          (float_of_int (Hashtbl.length cache.table));
        Condition.broadcast cache.compiled;
        Mutex.unlock cache.mutex
      in
      (match Schedule.compile ?config netlist with
      | schedule ->
        settle (Some schedule);
        schedule
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        settle None;
        Printexc.raise_with_backtrace e bt)
  in
  lookup ()

let stats cache =
  Mutex.lock cache.mutex;
  let size = Hashtbl.length cache.table in
  Mutex.unlock cache.mutex;
  {
    hits = Atomic.get cache.hits;
    misses = Atomic.get cache.misses;
    evictions = Atomic.get cache.evictions;
    size;
    capacity = cache.capacity;
  }

let clear cache =
  Mutex.lock cache.mutex;
  Hashtbl.reset cache.table;
  Mutex.unlock cache.mutex

let pp_stats ppf s =
  Format.fprintf ppf "hits %d, misses %d, evictions %d, resident %d/%d" s.hits
    s.misses s.evictions s.size s.capacity
