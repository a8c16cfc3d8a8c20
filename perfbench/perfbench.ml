(* The repository benchmark: PROM served over HTTP, end to end.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   generates the workload's inputs (World), prepares and snapshots the
   detector, spawns the server process (this executable's
   [serve] mode, see Launcher) and, on the wire workloads, the admit
   probe ([probe] mode, see Layers.probe_main), drives the server with
   the open-loop generator
   and checks every served verdict against a direct evaluation of the
   restored engine. The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   [--trace 0], the per-layer metrics (Layers) with [--trace 1]. Lines
   before it are a human-readable report and the run stamp. All scratch
   files live under [.perfbench-run/] in the working directory and are
   removed on exit. *)

open Prom
module J = Prom_jsonx
module L = Loadgen

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Arguments *)

type args = { workload : string; seed : int; seconds : int; trace : bool }

let usage () =
  prerr_endline
    "usage: perfbench --workload wire-dense|wire-indexed-batch|feedback-stream \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | "--workload" :: v :: r -> go { acc with workload = v } r
    | "--seed" :: v :: r -> go { acc with seed = int_of_string v } r
    | "--seconds" :: v :: r -> go { acc with seconds = int_of_string v } r
    | "--trace" :: v :: r -> go { acc with trace = v = "1" } r
    | _ -> usage ()
  in
  try go { workload = ""; seed = 1; seconds = 24; trace = false } argv
  with Failure _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Scratch directory and the server process *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* A child process of the run: the server, or the admit probe (port 0). *)
type child = { pid : int; cmd : out_channel; replies : in_channel; port : int }

let live_children : child list ref = ref []

(* The server's environment: the parent's, minus every PROM_* variable,
   plus exactly the knobs this workload pins. An inherited PROM_KERNELS,
   PROM_INDEX_MIN_N or PROM_TENANT_* can therefore not change what is
   measured. *)
let server_env extra =
  let inherited =
    List.filter
      (fun kv -> not (String.length kv >= 5 && String.sub kv 0 5 = "PROM_"))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list (inherited @ List.map (fun (k, v) -> k ^ "=" ^ v) extra)

let spawn ~env ~args =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) env in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let cmd = Unix.out_channel_of_descr in_w and replies = Unix.in_channel_of_descr out_r in
  let s = { pid; cmd; replies; port = 0 } in
  live_children := s :: !live_children;
  match String.split_on_char ' ' (input_line replies) with
  | [ "port"; p ] -> { s with port = int_of_string p }
  | [ "ready" ] -> s
  | _ -> failwith "child did not announce itself"
  | exception End_of_file -> failwith "child exited during start-up"

let rec wait_healthy ~port ~deadline =
  match L.get ~port "/healthz" with
  | Some r when r.Prom_server.Http.status = 200 -> ()
  | _ | (exception Unix.Unix_error _) ->
      if now () > deadline then failwith "server never became healthy";
      Thread.delay 0.002;
      wait_healthy ~port ~deadline

let send s line =
  output_string s.cmd (line ^ "\n");
  flush s.cmd

(* Close the child's input and wait for it to exit. *)
let reap s =
  close_out_noerr s.cmd;
  ignore (Unix.waitpid [] s.pid);
  close_in_noerr s.replies;
  live_children := List.filter (fun x -> x.pid <> s.pid) !live_children

let stop s =
  (try send s "quit" with Sys_error _ -> ());
  reap s

let kill_all () =
  List.iter
    (fun s ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ())
    !live_children;
  live_children := []

(* Peak resident set of a process, from /proc (VmHWM), in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(* ------------------------------------------------------------------ *)
(* Verdict identity *)

let bits = Int64.bits_of_float

(* Served verdicts of one response body, as (credibility, confidence,
   drifted). *)
let served_verdicts body =
  let one v =
    let f k = Option.bind (J.member k v) J.to_float in
    match (f "credibility", f "confidence", Option.bind (J.member "drifted" v) J.to_bool) with
    | Some c, Some k, Some d -> Some (c, k, d)
    | _ -> None
  in
  match J.parse body with
  | Error _ -> None
  | Ok v -> (
      match J.member "results" v with
      | Some (J.Arr items) ->
          let vs = List.map one items in
          if List.mem None vs then None else Some (Array.of_list (List.filter_map Fun.id vs))
      | _ -> Option.map (fun x -> [| x |]) (one v))

let same (c, k, d) (e : Detector.cls_verdict) =
  bits c = bits e.Detector.mean_credibility
  && bits k = bits e.Detector.mean_confidence
  && d = e.Detector.drifted

(* Check every answered request of a phase: request [i] carries the
   queries [expected i]. Returns the served drift flags in query order
   (None for unanswered requests) and whether all answered verdicts
   matched. *)
let check_phase outcomes ~expected =
  let ok = ref true in
  let flags =
    Array.mapi
      (fun i (o : L.outcome) ->
        if o.L.status <> 200 then None
        else
          let exp = expected i in
          match served_verdicts o.L.body with
          | Some vs when Array.length vs = Array.length exp ->
              Array.iteri (fun j v -> if not (same v exp.(j)) then ok := false) vs;
              Some (Array.map (fun (_, _, d) -> d) vs)
          | _ ->
              ok := false;
              None)
      outcomes
  in
  (flags, !ok)

(* detect_recall and acc_accepted over served queries with their drift
   flags. *)
let quality pairs =
  let mis = ref 0 and caught = ref 0 and acc = ref 0 and acc_ok = ref 0 in
  List.iter
    (fun ((q : World.query), drifted) ->
      let wrong = World.mispredicted q in
      if wrong then begin
        incr mis;
        if drifted then incr caught
      end;
      if not drifted then begin
        incr acc;
        if not wrong then incr acc_ok
      end)
    pairs;
  let ratio a b = if b = 0 then nan else float_of_int a /. float_of_int b in
  (ratio !caught !mis, ratio !acc_ok !acc)

(* ------------------------------------------------------------------ *)
(* Run stamp *)

let git_commit () =
  let read f =
    try
      let ic = open_in f in
      let l = input_line ic in
      close_in ic;
      Some (String.trim l)
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
      match read (Filename.concat ".git" (String.sub h 5 (String.length h - 5))) with
      | Some c -> c
      | None -> "unknown")
  | Some c -> c
  | None -> "unknown (not a git checkout)"

let cpu_model () =
  try
    let ic = open_in "/proc/cpuinfo" in
    let rec go () =
      match input_line ic with
      | l when String.length l > 10 && String.sub l 0 10 = "model name" -> (
          match String.index_opt l ':' with
          | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
          | None -> l)
      | _ -> go ()
      | exception End_of_file -> "unknown"
    in
    let m = go () in
    close_in ic;
    m
  with Sys_error _ -> "unknown"

(* ------------------------------------------------------------------ *)
(* The run *)

let nproc = Domain.recommended_domain_count ()
let conns = Stdlib.max 1 (Stdlib.min 2 nproc)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let print_result r =
  let metrics =
    List.map
      (fun (name, v, unit) ->
        (name, J.Obj [ ("value", J.Num (if Float.is_finite v then v else 0.0)); ("unit", J.Str unit) ]))
      r.metrics
  in
  let ok = r.correct && List.for_all (fun (_, v, _) -> Float.is_finite v) r.metrics in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool ok);
            ("attempted", J.Num (float_of_int r.attempted));
            ("failed", J.Num (float_of_int r.failed));
            ("metrics", J.Obj metrics);
          ]))

(* Constant-rate arrivals with a little seeded jitter: request [i] is due
   at [i / rate] plus a uniform draw from [[0, min (1/rate, 5 ms))]. The
   rate is exact over any window and the schedule stays in order. On an
   exact grid the arrival phase against the server's periodic work (the
   feed's admits, timer ticks) is fixed for a whole run but differs
   between runs, which splits runs into ones that always collide with it
   and ones that never do; the jitter removes that. Capping it at 5 ms
   keeps slow requests (wire-indexed-batch's 20 ms slots) from landing on
   top of each other at the fixed rate. *)
let max_jitter = 0.005

let run_phase ?quickack ~rng ~port ~rate wires =
  let jitter = Float.min (1.0 /. rate) max_jitter in
  let dues =
    Array.init (Array.length wires) (fun i ->
        (float_of_int i /. rate) +. Random.State.float rng jitter)
  in
  (* The generator starts each phase with no collection owed, so that
     work left over from computing the expected verdicts does not fall
     into its read loop. *)
  Gc.full_major ();
  let start = now () +. 0.01 in
  let outcomes = L.run ?quickack ~port ~conns ~start ~dues ~wires ~drain:3.0 () in
  (outcomes, L.summarize ~start ~dues outcomes)

let report_phase name (p : L.phase) =
  Printf.printf
    "  %-22s sent %6d  ok %6d  failed %3d  p50 %8.3f ms  p99 %8.3f ms  lag p50/p99 %.0f/%.0f us\n%!"
    name p.L.attempted p.L.succeeded p.L.failed (1e3 *. p.L.p50) (1e3 *. p.L.p99)
    (1e6 *. p.L.lag_p50) (1e6 *. p.L.lag_p99)

(* Fewest requests in the fixed-rate phase. Its p99 then has fifteen
   samples beyond it; with ten, wire-indexed-batch's p99 (about 1.3 times
   its p50, on a steep tail) spread past a quarter of its median across
   runs. *)
let min_fixed_requests = 1500

(* Chunks the feed's admits are cut into on feedback-stream. *)
let feed_chunks = 10

(* Set-ups per untraced run: at least [setup_min], then more until
   [setup_budget] seconds of set-up are spent, at most [setup_max]. A
   set-up of the small stores takes about 25 ms, mostly process spawn,
   so one slow spawn would move a median of five. *)
let setup_min = 5
let setup_max = 25
let setup_budget = 1.0

let main args =
  let spec = match World.find args.workload with Some s -> s | None -> usage () in
  let ladder_budget = 0.5 *. float_of_int args.seconds in
  let t_fixed = Float.max ladder_budget (float_of_int min_fixed_requests /. spec.World.rate) in
  let fixed_requests = int_of_float (spec.World.rate *. t_fixed) in
  let feed_count =
    int_of_float (Float.round (World.feed_share *. spec.World.rate *. float_of_int spec.World.batch *. t_fixed))
  in
  let world =
    World.generate spec ~seed:args.seed ~fixed_requests
      ~feed_count:(if spec.World.feed then feed_count else Layers.probe_admits)
  in
  let work = Filename.concat ".perfbench-run" (string_of_int (Unix.getpid ())) in
  mkdir_p work;
  let cleanup () =
    kill_all ();
    rm_rf work;
    try Unix.rmdir (Filename.dirname work) with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let config = World.config spec in
  let feed_file = Filename.concat work "feed.bin" in
  let final_dir = Filename.concat work "final" in
  (* The stream starts at capacity, the steady state of a long-running
     deployment: under exponential decay no entry ever expires, so every
     admit evicts the oldest entry and compacts (a full rebuild). The
     compactions are thus spread evenly through the feed and the
     fixed-rate phase. *)
  let stream_env =
    if spec.World.feed then
      [
        (Stream.capacity_env, string_of_int spec.World.n_cal);
        (Stream.decay_env, Printf.sprintf "exp:%d" World.half_life);
        (Stream.compact_env, "0.5");
      ]
    else []
  in
  let env = server_env ((Prom_parallel.Pool.env_var, string_of_int nproc) :: stream_env) in
  (* The feed: the server's on feedback-stream, the admit probe's
     elsewhere. *)
  (let oc = open_out_bin feed_file in
   Marshal.to_channel oc
     (Array.map (fun (q : World.query) -> (q.World.features, q.World.label, q.World.proba)) world.World.feed)
     [];
   close_out oc);
  (* --- Set-up: prepare, snapshot, spawn, restore, first healthy reply. --- *)
  let setups = ref [] and prepare = ref [] and server = ref None and snap_dir = ref "" in
  let more_setups () =
    let k = List.length !setups in
    if args.trace then k < 1
    else k < setup_min || (k < setup_max && List.fold_left ( +. ) 0.0 !setups < setup_budget)
  in
  while more_setups () do
    Option.iter stop !server;
    let dir = Filename.concat work (Printf.sprintf "snap-%d" (List.length !setups)) in
    let t0 = now () in
    let service = Service.create ~config world.World.calibration in
    let t_prep = now () in
    ignore (Snapshot.save ~dir (Service.snapshot service) : Prom_store.Store.info);
    let s =
      spawn ~env
        ~args:[ "serve"; dir; (if spec.World.feed then feed_file else "-"); final_dir ]
    in
    wait_healthy ~port:s.port ~deadline:(now () +. 60.0);
    setups := (now () -. t0) :: !setups;
    prepare := (t_prep -. t0) :: !prepare;
    server := Some s;
    snap_dir := dir
  done;
  let srv = Option.get !server in
  let setup_s = L.median (Array.of_list !setups) in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%b\n" spec.World.name args.seed
    args.seconds args.trace;
  Printf.printf "  setup_s %.4f (median of %d)\n%!" setup_s (List.length !setups);
  (* --- The direct engine: the same snapshot, restored here. --- *)
  let restored_of dir =
    match Snapshot.load_latest ~kind:Snapshot.kind_cls ~dir () with
    | Some (s, _) -> (s, Service.of_snapshot s)
    | None -> failwith "cannot reload the snapshot"
  in
  let snap, direct = restored_of !snap_dir in
  (* The wire workloads' write-cost probe (Layers.probe_main), one chunk
     after each phase. *)
  let probe =
    if spec.World.feed then None else Some (spawn ~env ~args:[ "probe"; !snap_dir; feed_file ])
  in
  let timed = ref [] in
  let probe_chunk () =
    match probe with
    | Some p when List.length !timed < Layers.probe_chunks -> (
        send p "chunk";
        match String.split_on_char ' ' (input_line p.replies) with
        | "chunk" :: ds -> timed := Array.of_list (List.map float_of_string ds) :: !timed
        | _ -> failwith "bad probe reply")
    | _ -> ()
  in
  (* The chunks not yet timed, [Layers.probe_pause] apart; then every
     chunk's admit durations (s), and the stream's compaction and publish
     counts. *)
  let probe_result p =
    while List.length !timed < Layers.probe_chunks do
      Thread.delay Layers.probe_pause;
      probe_chunk ()
    done;
    send p "quit";
    let counts =
      match String.split_on_char ' ' (input_line p.replies) with
      | [ "stats"; c; k ] -> (float_of_string c, float_of_string k)
      | _ -> failwith "bad probe reply"
    in
    reap p;
    (Array.of_list (List.rev !timed), fst counts, snd counts)
  in
  let calibration =
    match snap with Snapshot.Cls c -> c.Snapshot.cls_calibration | Snapshot.Reg _ -> assert false
  in
  let has_index = Calibration.index_of_cls calibration <> None in
  let index_expected = spec.World.select_ratio <> None in
  let pairs qs = Array.map (fun (q : World.query) -> (q.World.features, q.World.proba)) qs in
  let expect_fixed = Service.evaluate_batch direct (pairs world.World.fixed) in
  let batch = spec.World.batch in
  let wires_of qs =
    Array.map (fun r -> L.wire_request ~path:"/predict" (World.body r)) (World.requests ~batch qs)
  in
  let fixed_wires = wires_of world.World.fixed in
  let pool_reqs = Array.length world.World.ladder_pool / batch in
  let pool_wires = wires_of world.World.ladder_pool in
  let cycle n = Array.init n (fun i -> pool_wires.(i mod pool_reqs)) in
  (* --- Warm-up, then the fixed-rate phase. --- *)
  let port = srv.port in
  let phases = ref 0 in
  let phase_rng () =
    incr phases;
    Random.State.make [| args.seed; !phases |]
  in
  ignore
    (run_phase ~rng:(phase_rng ()) ~port ~rate:spec.World.rate
       (cycle (int_of_float (spec.World.rate /. 2.0))));
  probe_chunk ();
  let m0 = Scrape.metrics_text port in
  let t_m0 = now () in
  let identity = ref true in
  if spec.World.feed then send srv (Printf.sprintf "feed %g %d" t_fixed args.seed);
  let fixed_out, fixed = run_phase ~rng:(phase_rng ()) ~port ~rate:spec.World.rate fixed_wires in
  report_phase "fixed-rate" fixed;
  probe_chunk ();
  (* The fixed phase's verdicts are checked against the restored engine;
     under feedback-stream the engine changes with every admit, so its
     check is the quality set's, served after the feed. *)
  if not spec.World.feed then begin
    let _, ok =
      check_phase fixed_out ~expected:(fun i -> Array.sub expect_fixed (i * batch) batch)
    in
    identity := !identity && ok
  end;
  let m1 = Scrape.metrics_text port in
  let t_m1 = now () in
  let fed =
    if not spec.World.feed then None
    else begin
      let line = input_line srv.replies in
      let js = String.sub line 4 (String.length line - 4) in
      match J.parse js with Ok v -> Some v | Error e -> failwith ("bad feed report: " ^ e)
    end
  in
  let engine = if spec.World.feed then snd (restored_of final_dir) else direct in
  (* --- The quality set: served in 32-query batches, every verdict
     checked, then scored for detect_recall and acc_accepted. Its
     verdicts depend only on the seed, so both repeat exactly. --- *)
  let qset = world.World.quality in
  let qb = 32 in
  let q_out =
    let wires =
      Array.map (fun r -> L.wire_request ~path:"/predict" (World.body r)) (World.requests ~batch:qb qset)
    in
    L.run ~port ~conns ~start:(now ()) ~dues:(Array.make (Array.length wires) 0.0) ~wires
      ~drain:30.0 ()
  in
  probe_chunk ();
  let q_expect = Service.evaluate_batch engine (pairs qset) in
  let q_flags, ok = check_phase q_out ~expected:(fun i -> Array.sub q_expect (i * qb) qb) in
  identity := !identity && ok;
  let q_failed = Array.fold_left (fun n f -> if f = None then n + 1 else n) 0 q_flags in
  let detect_recall, acc_accepted =
    quality
      (List.concat
         (List.mapi
            (fun i f ->
              match f with
              | Some ds -> List.init qb (fun j -> (qset.((i * qb) + j), ds.(j)))
              | None -> [])
            (Array.to_list q_flags)))
  in
  (* --- Rate ladder (untraced runs only). --- *)
  let expect_pool = Service.evaluate_batch engine (pairs world.World.ladder_pool) in
  let rung_seconds = 1.0 in
  let limit = spec.World.limit_ms /. 1e3 in
  (* A rung's score is its p99, or the median of its last fifth when that
     is higher (a growing backlog), or infinity if any request failed; the
     rung passes when its score meets the limit. As in the fixed-rate
     phase, slices in which the generator ran late are left out of its
     p99. *)
  let rung rate =
    let n = int_of_float (rate *. rung_seconds) in
    let out, p = run_phase ~rng:(phase_rng ()) ~port ~rate (cycle n) in
    let _, ok =
      check_phase out ~expected:(fun k -> Array.sub expect_pool (k mod pool_reqs * batch) batch)
    in
    identity := !identity && ok;
    report_phase (Printf.sprintf "ladder %.0f req/s" rate) p;
    probe_chunk ();
    if p.L.failed > 0 then infinity else Float.max p.L.p99 p.L.last_p50
  in
  (* Climb the fixed ladder until a rung fails, then bisect (geometric
     midpoints) between the last passing and the first failing rate, and
     interpolate log-linearly where the score crosses the limit. The climb
     stops early, reporting the last passing rung, when its time budget
     is spent. *)
  let refine_steps = 3 in
  let sustained =
    if args.trace then nan
    else begin
      let t_ladder = now () in
      let crossing (lo, lo_score) (hi, hi_score) =
        let hi_score = Float.min hi_score 10.0 in
        let f = log (limit /. lo_score) /. log (hi_score /. lo_score) in
        lo *. ((hi /. lo) ** Float.min 1.0 (Float.max 0.0 f))
      in
      let rec refine lo hi k =
        if k = 0 then crossing lo hi
        else
          let mid = sqrt (fst lo *. fst hi) in
          let score = rung mid in
          if score <= limit then refine (mid, score) hi (k - 1)
          else refine lo (mid, score) (k - 1)
      in
      let rec climb lo i =
        if i >= Array.length spec.World.ladder || now () -. t_ladder > ladder_budget then begin
          print_endline "  ladder: no failing rung within budget; sustained is a lower bound";
          fst lo
        end
        else
          let rate = spec.World.ladder.(i) in
          let score = rung rate in
          if score <= limit then climb (rate, score) (i + 1)
          else refine lo (rate, score) refine_steps
      in
      climb (spec.World.rate, Float.min (Float.max fixed.L.p99 fixed.L.last_p50) limit) 0
    end
  in
  (* --- Traced runs only: the fixed rate for a few seconds more, from a
     client that leaves delayed ACKs on, as a default client does (see
     Loadgen.connect). Its p50 is the latency such a client sees; it is
     no end-to-end metric because it flips between two states. --- *)
  let delayed_ack_p50 =
    if not args.trace then nan
    else begin
      let n = int_of_float (spec.World.rate *. 4.0) in
      let out, p =
        run_phase ~quickack:false ~rng:(phase_rng ()) ~port ~rate:spec.World.rate (cycle n)
      in
      report_phase "delayed-ACK client" p;
      let _, ok =
        check_phase out ~expected:(fun k -> Array.sub expect_pool (k mod pool_reqs * batch) batch)
      in
      identity := !identity && ok;
      p.L.p50
    end
  in
  (* --- Regime guard. --- *)
  let scanned = Scrape.scrape m1 "prom_index_candidates_scanned_total" -. Scrape.scrape m0 "prom_index_candidates_scanned_total" in
  let regime_ok =
    if index_expected then has_index && scanned > 0.0 else not has_index
  in
  Printf.printf "  regime: index %s (expected %s), index rows scanned during run %.0f -> %s\n"
    (if has_index then "present" else "absent")
    (if index_expected then "present" else "absent")
    scanned
    (if regime_ok then "ok" else "VIOLATED");
  let lag_bound = limit /. 4.0 in
  let lag_ok = fixed.L.lag_p99 <= lag_bound in
  Printf.printf "  generator send lag p99 %.0f us at the fixed rate (bound %.0f us) -> %s\n"
    (1e6 *. fixed.L.lag_p99) (1e6 *. lag_bound) (if lag_ok then "ok" else "INVALID RUN");
  Printf.printf "  verdict identity (served = direct evaluate_batch, bit-equal): %b\n" !identity;
  let rss = peak_rss_mb srv.pid in
  let fed_admits =
    match fed with
    | Some v -> (
        match Option.bind (J.member "admit_s" v) J.float_array with
        | Some a -> a
        | None -> [||])
    | None -> [||]
  in
  let fed_count k = match fed with Some v -> Option.value ~default:nan (Option.bind (J.member k v) J.to_float) | None -> nan in
  let traced =
    if args.trace then
      Some
        (Layers.measure ~scratch:work ~spec ~world ~snap ~direct ~calibration
           ~prepare_s:(L.median (Array.of_list !prepare))
           ~fixed_out ~fixed ~m0 ~m1 ~wall:(t_m1 -. t_m0))
    else None
  in
  stop srv;
  (* --- Write cost, in chunks of consecutive admits: the feed's, timed
     in the server beside the reads, on feedback-stream (every admit
     compacts); elsewhere the probe's. Each figure is the interquartile
     mean over chunks of the chunk's percentile, so no single admit or
     chunk makes it. On a shared two-vCPU virtual machine a single thread
     ran at one of a few speeds for a few tenths of a second at a time
     (5.5, 8 or 11 ms per admit on wire-indexed-batch); a median over
     chunks followed whichever speed held just over half of them and
     jumped between runs. --- *)
  let chunks, compactions, publishes =
    if spec.World.feed then
      let n = Array.length fed_admits and k = feed_chunks in
      let from c = c * n / k in
      ( Array.init k (fun c -> Array.sub fed_admits (from c) (from (c + 1) - from c)),
        fed_count "compactions",
        fed_count "publishes" )
    else probe_result (Option.get probe)
  in
  let over_chunks p = L.interquartile_mean (Array.map (fun c -> L.percentile (L.sorted c) p) chunks) in
  let admit_p50 = over_chunks 0.5 and admit_p99 = over_chunks 0.99 in
  let admits = Array.fold_left (fun n c -> n + Array.length c) 0 chunks in
  let errors = fixed.L.failed + q_failed in
  let attempted = fixed.L.attempted + Array.length q_out in
  let error_rate = float_of_int errors /. float_of_int (Stdlib.max 1 attempted) in
  Printf.printf "  error_rate %.4f (%d of %d)\n" error_rate errors attempted;
  Printf.printf "  admits %d (compactions %.0f, publishes %.0f)\n" admits compactions publishes;
  Printf.printf
    "stamp %s\n"
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str spec.World.name);
            ("seed", J.Num (float_of_int args.seed));
            ("nproc", J.Num (float_of_int nproc));
            ("connections", J.Num (float_of_int conns));
            ("pool_domains", J.Num (Scrape.scrape m1 "prom_pool_domains"));
            ("kernels", J.Str (Prom_linalg.Kernels.active_name ()));
            ("isa", J.Str (Prom_linalg.Kernels.active_isa ()));
            ("ocaml", J.Str Sys.ocaml_version);
            ("commit", J.Str (git_commit ()));
            ("cpu", J.Str (cpu_model ()));
            ("fixed_rate_rps", J.Num spec.World.rate);
            ("latency_limit_ms", J.Num spec.World.limit_ms);
          ]));
  let correct = !identity && regime_ok && lag_ok in
  let metrics =
    match traced with
    | Some layer_metrics ->
        layer_metrics
        @ [
            ("stream.admit_us", 1e6 *. admit_p50, "us");
            ("stream.compactions", compactions, "count");
            ("stream.publishes", publishes, "count");
            ("loadgen.send_lag_p99_us", 1e6 *. fixed.L.lag_p99, "us");
            ("wire.delayed_ack_p50_us", 1e6 *. delayed_ack_p50, "us");
          ]
    | None ->
        [
          ("setup_s", setup_s, "s");
          ("lat_p50_ms", 1e3 *. fixed.L.p50, "ms");
          ("lat_p99_ms", 1e3 *. fixed.L.p99, "ms");
          ("sustained_qps", sustained *. float_of_int batch, "1/s");
          ("admit_p50_ms", 1e3 *. admit_p50, "ms");
          ("admit_p99_ms", 1e3 *. admit_p99, "ms");
          ("detect_recall", detect_recall, "ratio");
          ("acc_accepted", acc_accepted, "ratio");
          ("server_rss_mb", rss, "MiB");
        ]
  in
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %14.4f %s\n" n v u) metrics;
  { correct; attempted; failed = errors; metrics }

let () =
  (* The kernel backend is resolved by a lazy value; forcing it from two
     pool domains at once raises [Lazy.Undefined]. Resolve it here, on
     one domain, before any parallel work in either process. *)
  ignore (Prom_linalg.Kernels.active () : Prom_linalg.Kernels.backend);
  match Array.to_list Sys.argv with
  | _ :: "serve" :: [ dir; feed; final_dir ] ->
      Launcher.main ~dir ~feed_file:(if feed = "-" then None else Some feed) ~final_dir
  | _ :: "probe" :: [ dir; feed_file ] -> Layers.probe_main ~dir ~feed_file
  | _ :: rest ->
      (* A child that dies mid-run then fails a write with EPIPE, which
         is handled, instead of killing the run with SIGPIPE. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let args = parse_args rest in
      let r =
        try main args
        with e ->
          kill_all ();
          Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
          exit 1
      in
      print_result r
  | [] -> usage ()
