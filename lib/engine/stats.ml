type t = {
  jobs : int;
  succeeded : int;
  failed : int;
  workers : int;
  conflicts : int;
  cache_hits : int;
  cache_misses : int;
  retried : int;
  shed : int;
  degraded : int;
  wall_time : float;
  cpu_time : float;
  compile_wall : float;
  diagnose_wall : float;
}

let zero =
  {
    jobs = 0;
    succeeded = 0;
    failed = 0;
    workers = 0;
    conflicts = 0;
    cache_hits = 0;
    cache_misses = 0;
    retried = 0;
    shed = 0;
    degraded = 0;
    wall_time = 0.;
    cpu_time = 0.;
    compile_wall = 0.;
    diagnose_wall = 0.;
  }

let throughput t =
  if t.wall_time > 0. then float_of_int (t.succeeded + t.failed) /. t.wall_time
  else 0.

(* The CLI's --stats-json schema, one flat object. *)
let json_fields ppf t =
  Format.fprintf ppf
    "\"jobs\": %d, \"succeeded\": %d, \"failed\": %d, \"workers\": %d, \
     \"conflicts\": %d, \"cache_hits\": %d, \"cache_misses\": %d, \
     \"retried\": %d, \"shed\": %d, \"degraded\": %d, \
     \"wall_s\": %.6f, \"cpu_s\": %.6f, \"jobs_per_s\": %.2f, \
     \"compile_s\": %.6f, \"diagnose_s\": %.6f"
    t.jobs t.succeeded t.failed t.workers t.conflicts t.cache_hits
    t.cache_misses t.retried t.shed t.degraded t.wall_time t.cpu_time
    (throughput t) t.compile_wall t.diagnose_wall

let to_json t = Format.asprintf "{ %a }" json_fields t

let pp ppf t =
  Format.fprintf ppf
    "@[<v>engine stats:@,\
    \  jobs      %d (%d ok, %d failed) on %d worker%s@,\
    \  resil     %d retried, %d shed, %d degraded@,\
    \  conflicts %d@,\
    \  cache     %d hit%s, %d miss%s@,\
    \  wall      %.3f s (%.1f jobs/s), cpu %.3f s@,\
    \  stages    compile %.3f s, diagnose %.3f s (summed across workers)@]"
    t.jobs t.succeeded t.failed t.workers
    (if t.workers = 1 then "" else "s")
    t.retried t.shed t.degraded t.conflicts t.cache_hits
    (if t.cache_hits = 1 then "" else "s")
    t.cache_misses
    (if t.cache_misses = 1 then "" else "es")
    t.wall_time (throughput t) t.cpu_time t.compile_wall t.diagnose_wall
