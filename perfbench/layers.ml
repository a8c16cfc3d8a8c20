(* Per-layer metrics of the traced run.

   Each layer is timed from benchmark code, around calls into its public
   functions, on the workload's own inputs and the restored engine; the
   server's existing /metrics series, scraped before and after the
   fixed-rate phase, supply the serving-side counts. Nothing here runs
   inside the server's request path, so these numbers explain the
   end-to-end metrics but do not add up to them exactly: the two
   remainders (detector.unattributed_us, wire.unattributed_us) are
   reported rather than hidden. *)

open Prom
open Prom_linalg
module J = Prom_jsonx
module L = Loadgen

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Median wall time of [reps] calls of [f]. *)
let median_time ~reps f = L.median (Array.init reps (fun _ -> snd (time f)))

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Stdlib.max 1 (Array.length a))
let take n a = Array.sub a 0 (Stdlib.min n (Array.length a))

(* The write-cost probe: [probe_chunks] chunks of at most
   [probe_chunk_admits] admits or [probe_chunk_seconds] each. *)
let probe_chunks = 40
let probe_chunk_admits = 25
let probe_chunk_seconds = 0.1
let probe_pause = 0.05
let probe_admits = probe_chunks * probe_chunk_admits

(* The write-cost probe process ([perfbench probe DIR FEED]): write cost
   with no reads beside it. A [Stream] over its own restore of the newest
   snapshot in DIR admits the samples of FEED back to back, one chunk per
   "chunk" line on standard input, and answers each with a line
   "chunk D1 D2 ..." of the chunk's admit durations (s); "quit" or end of
   input answers "stats COMPACTIONS PUBLISHES" and exits. The caller
   spreads the chunks over the run, between phases, while the server is
   idle, so that a slow spell of the host hits some chunks, not all.

   Admits allocate several copies of the store each, so their time is
   largely the garbage collector's, which scales with the live heap. In
   its own process the probe's heap is the stream's alone, as in a
   deployment, not the load generator's with its request and verdict
   tables. The capacity is large enough that no compaction fires. *)
let probe_main ~dir ~feed_file =
  let snap =
    match Snapshot.load_latest ~kind:Snapshot.kind_cls ~dir () with
    | Some (s, _) -> s
    | None -> failwith ("no loadable snapshot in " ^ dir)
  in
  let feed : (float array * int * float array) array =
    let ic = open_in_bin feed_file in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic)
  in
  let n =
    match snap with
    | Snapshot.Cls c -> Array.length c.Snapshot.cls_calibration.Calibration.entries
    | Snapshot.Reg _ -> 0
  in
  let stream =
    Stream.create
      ~policy:(Decay.Exponential { half_life = float_of_int World.half_life })
      ~capacity:(n + Array.length feed + 1) ~compact_fraction:0.5 (Service.of_snapshot snap)
  in
  let say line =
    print_string (line ^ "\n");
    flush stdout
  in
  let next = ref 0 in
  let chunk () =
    let t_end = now () +. probe_chunk_seconds in
    let durations = ref [] and k = ref 0 in
    while !k < probe_chunk_admits && !next < Array.length feed && now () < t_end do
      let features, label, proba = feed.(!next) in
      incr next;
      incr k;
      durations := snd (time (fun () -> Stream.admit stream ~features ~label ~proba)) :: !durations
    done;
    say (String.concat " " ("chunk" :: List.rev_map (Printf.sprintf "%.9e") !durations))
  in
  say "ready";
  let rec loop () =
    match input_line stdin with
    | "chunk" ->
        chunk ();
        loop ()
    | "quit" | (exception End_of_file) ->
        let st = Stream.stats stream in
        say (Printf.sprintf "stats %d %d" st.Stream.compactions st.Stream.publishes)
    | line -> failwith ("unknown command: " ^ line)
  in
  loop ()

(* Submit-to-run-start wait in a [Batcher] at [Server.default_config]'s
   batching knobs, fed with the workload's request groups at its fixed
   rate for [seconds]. *)
let batcher_wait ~direct ~(spec : World.spec) ~queries ~seconds =
  let cfg = Prom_server.Server.default_config in
  let waits = ref [] and sizes = ref [] in
  let lock = Mutex.create () in
  let b =
    Prom_server.Batcher.create ~max_batch:cfg.Prom_server.Server.max_batch
      ~max_wait_us:cfg.Prom_server.Server.max_wait_us
      ~on_batch:(fun n ->
        Mutex.lock lock;
        sizes := float_of_int n :: !sizes;
        Mutex.unlock lock)
      (fun items ->
        let t = now () in
        Mutex.lock lock;
        Array.iter (fun (submitted, _) -> waits := (t -. submitted) :: !waits) items;
        Mutex.unlock lock;
        Service.evaluate_batch direct (Array.map snd items))
  in
  let groups = World.requests ~batch:spec.World.batch queries in
  let n = Stdlib.min (Array.length groups) (int_of_float (spec.World.rate *. seconds)) in
  let pending = Atomic.make n in
  let start = now () in
  for i = 0 to n - 1 do
    let due = start +. (float_of_int i /. spec.World.rate) in
    let wait = due -. now () in
    if wait > 0.0 then Thread.delay wait;
    let t = now () in
    let items =
      Array.map (fun (q : World.query) -> (t, (q.World.features, q.World.proba))) groups.(i)
    in
    Prom_server.Batcher.submit_async b items ~notify:(fun _ -> Atomic.decr pending)
  done;
  while Atomic.get pending > 0 do
    Thread.delay 0.001
  done;
  Prom_server.Batcher.shutdown b;
  (L.median (Array.of_list !waits), mean (Array.of_list !sizes))

(* Stage-by-stage replay of one query's committee evaluation, through
   the same public functions and in the same order as the detector's
   query path. Returns per-stage seconds: standardize, scan, select,
   distance p-value, p-value tables (all experts), vote. *)
let stages ~(snap : Snapshot.cls_snapshot) (qs : World.query array) =
  let cal = snap.Snapshot.cls_calibration in
  let config = snap.Snapshot.cls_config in
  let committee = snap.Snapshot.cls_committee in
  let entries = cal.Calibration.entries in
  let entry_labels = Array.map (fun e -> e.Calibration.label) entries in
  let order = Option.map Knn_index.member_order (Calibration.index_of_cls cal) in
  let permute a = match order with Some o -> Array.map (fun i -> a.(i)) o | None -> [||] in
  let tables =
    List.map
      (fun fn ->
        let s =
          Array.map
            (fun e -> fn.Nonconformity.cls_score ~proba:e.Calibration.proba ~label:e.Calibration.label)
            entries
        in
        (fn, s, permute s))
      committee
  in
  let packed_labels = permute entry_labels in
  let acc = Array.make 6 0.0 in
  let n_classes = World.n_classes in
  Array.iter
    (fun (q : World.query) ->
      let t0 = now () in
      let v = Calibration.standardize_cls cal q.World.features in
      let t1 = now () in
      let d = Calibration.query_distances_cls cal v in
      let t2 = now () in
      let selection =
        Calibration.select_packed_dists ~tau:cal.Calibration.tau
          ~entry_weights:cal.Calibration.ent_weights ~packed_weights:cal.Calibration.pk_weights
          ~config d
      in
      let t3 = now () in
      let distance_pvalue = Calibration.distance_pvalue_cls_dists cal d in
      let t4 = now () in
      let pv =
        List.map
          (fun (fn, entry_scores, packed_scores) ->
            let test_scores =
              Array.init n_classes (fun label -> fn.Nonconformity.cls_score ~proba:q.World.proba ~label)
            in
            ( fn,
              Pvalue.classification_all_table ~packed_scores ~packed_labels ~entry_scores
                ~entry_labels ~selection ~test_scores ~n_classes () ))
          tables
      in
      let t5 = now () in
      let predicted = Vec.argmax q.World.proba in
      let experts =
        List.map
          (fun (fn, (pvalues, set_pvalues)) ->
            Scores.expert_verdict ~distance_pvalue ~set_pvalues
              ~discrete:fn.Nonconformity.cls_discrete ~config ~expert:fn.Nonconformity.cls_name
              ~pvalues ~predicted ())
          pv
      in
      ignore (Scores.committee_decision ~config experts : bool);
      let t6 = now () in
      Array.iteri (fun i dt -> acc.(i) <- acc.(i) +. dt) [| t1 -. t0; t2 -. t1; t3 -. t2; t4 -. t3; t5 -. t4; t6 -. t5 |])
    qs;
  Array.map (fun s -> s /. float_of_int (Array.length qs)) acc

let measure ~scratch ~(spec : World.spec) ~(world : World.t) ~snap ~direct ~calibration
    ~prepare_s ~(fixed_out : L.outcome array) ~(fixed : L.phase) ~m0 ~m1 ~wall =
  let cls = match snap with Snapshot.Cls c -> c | Snapshot.Reg _ -> assert false in
  let cal : Calibration.cls = calibration in
  let n = Array.length cal.Calibration.entries in
  let us s = 1e6 *. s and ms s = 1e3 *. s in
  let batch = spec.World.batch in
  (* jsonx / http: the fixed phase's own request and response bodies. *)
  let reqs = take 200 (World.requests ~batch world.World.fixed) in
  let bodies = Array.map World.body reqs in
  let resp =
    take 200
      (Array.of_list
         (List.filter_map
            (fun (o : L.outcome) -> if o.L.status = 200 then Some o.L.body else None)
            (Array.to_list fixed_out)))
  in
  let parsed = Array.map (fun b -> Result.get_ok (J.parse b)) resp in
  let per_item total k = total /. float_of_int (Stdlib.max 1 k) in
  let parse_s = snd (time (fun () -> Array.iter (fun b -> ignore (J.parse b)) bodies)) in
  let json_encode_s = snd (time (fun () -> Array.iter (fun v -> ignore (J.to_string v)) parsed)) in
  let mean_len a = mean (Array.map (fun s -> float_of_int (String.length s)) a) in
  let http_parse =
    let r, w = Unix.pipe ~cloexec:true () in
    let reader = Prom_server.Http.reader r in
    let total = ref 0.0 in
    Array.iter
      (fun b ->
        let wire = L.wire_request ~path:"/predict" b in
        ignore (Unix.write_substring w wire 0 (String.length wire));
        let t0 = now () in
        let rec go () =
          match Prom_server.Http.try_read_request reader with
          | `Req _ -> ()
          | `Need_more -> (
              match Prom_server.Http.fill_once reader with
              | `Data _ -> go ()
              | `Eof | `Again -> failwith "http parse: short pipe read")
          | `Err _ -> failwith "http parse: rejected request"
        in
        go ();
        total := !total +. (now () -. t0))
      bodies;
    Unix.close r;
    Unix.close w;
    per_item !total (Array.length bodies)
  in
  let serialize_s =
    snd
      (time (fun () ->
           Array.iter
             (fun b -> ignore (Prom_server.Http.serialize_response ~status:200 ~keep_alive:true b))
             resp))
  in
  (* server (scraped over the fixed-rate phase) *)
  let delta name = Scrape.scrape m1 name -. Scrape.scrape m0 name in
  let server_p50 = Scrape.hist_p50 ~before:m0 ~after:m1 "prom_http_request_seconds" in
  let ratio a b = if b > 0.0 then a /. b else nan in
  (* The server's latency histogram has coarse buckets (2.5 ms, 5 ms,
     ...), so its interpolated median cannot be subtracted from the
     client's; the wire remainder uses the exact means instead. *)
  let server_mean =
    ratio (delta "prom_http_request_seconds_sum") (delta "prom_http_request_seconds_count")
  in
  let client_mean = mean fixed.L.lat_sorted in
  (* batcher *)
  let wait, bsize = batcher_wait ~direct ~spec ~queries:world.World.ladder_pool ~seconds:1.0 in
  (* service *)
  let sample = take (if batch = 1 then 400 else 320) world.World.fixed in
  let pairs qs = Array.map (fun (q : World.query) -> (q.World.features, q.World.proba)) qs in
  let groups = World.requests ~batch sample in
  ignore (Service.evaluate_batch direct (pairs sample));
  let eval_s =
    snd (time (fun () -> Array.iter (fun g -> ignore (Service.evaluate_batch direct (pairs g))) groups))
  in
  let single_s =
    snd (time (fun () -> Array.iter (fun q -> ignore (Service.evaluate_batch direct (pairs [| q |]))) sample))
  in
  let restore_s = median_time ~reps:3 (fun () -> ignore (Service.of_snapshot snap)) in
  let swap_s = median_time ~reps:5 (fun () -> Service.swap direct snap) in
  (* calibration stages, p-values, vote *)
  let st = stages ~snap:cls sample in
  let stage_sum = Array.fold_left ( +. ) 0.0 st in
  let per_q = per_item single_s (Array.length sample) in
  let feed_entry (q : World.query) =
    { Calibration.features = Calibration.standardize_cls cal q.World.features; label = q.World.label; proba = q.World.proba }
  in
  let fresh = Array.map feed_entry (take 16 world.World.fixed) in
  let append_s =
    L.median (Array.map (fun e -> snd (time (fun () -> ignore (Calibration.append_cls cal [| e |])))) fresh)
  in
  let weights = Array.init n (fun i -> 0.5 ** (float_of_int (n - 1 - i) /. float_of_int World.half_life)) in
  let reweight_s = median_time ~reps:5 (fun () -> ignore (Calibration.reweight_cls cal weights)) in
  let rebuild_s =
    snd
      (time (fun () ->
           ignore
             (Calibration.rebuild_cls ~config:cls.Snapshot.cls_config ~scaler:cal.Calibration.scaler
                ~tau:cal.Calibration.tau cal.Calibration.entries)))
  in
  (* knn_index *)
  let has_index = Calibration.index_of_cls cal <> None in
  let scanned = delta "prom_index_candidates_scanned_total" in
  let pruned = delta "prom_index_pruned_total" in
  let queries = delta "prom_queries_total" in
  let fm = cal.Calibration.feat_matrix in
  let build_s = snd (time (fun () -> ignore (Knn_index.build fm))) in
  (* kernels: one full-matrix scan per query *)
  let out = Array.make n 0.0 in
  let vs = Array.map (fun (q : World.query) -> Calibration.standardize_cls cal q.World.features) (take 200 sample) in
  let scan_s =
    snd (time (fun () -> Array.iter (fun v -> Featmat.sq_dists_range fm ~r0:0 ~r1:n v out ~off:0) vs))
  in
  (* snapshot / store *)
  let payload, encode_s = time (fun () -> Snapshot.encode snap) in
  let decode_s = median_time ~reps:3 (fun () -> ignore (Snapshot.decode payload)) in
  let store_s =
    snd
      (time (fun () ->
           ignore
             (Prom_store.Store.save ~dir:(Filename.concat scratch "store-probe")
                ~kind:Snapshot.kind_cls ~codec_version:Snapshot.codec_version payload)))
  in
  let domains = Scrape.scrape m1 "prom_pool_domains" in
  [
    ("jsonx.parse_us", us (per_item parse_s (Array.length bodies)), "us");
    ("jsonx.encode_us", us (per_item json_encode_s (Array.length parsed)), "us");
    ("jsonx.req_bytes", mean_len bodies, "bytes");
    ("jsonx.resp_bytes", mean_len resp, "bytes");
    ("http.parse_us", us http_parse, "us");
    ("http.serialize_us", us (per_item serialize_s (Array.length resp)), "us");
    ("server.request_us_p50", us server_p50, "us");
    ( "server.batch_size_mean",
      ratio (delta "prom_http_batch_size_sum") (delta "prom_http_batch_size_count"),
      "queries" );
    ( "server.evloop_iter_us_mean",
      us
        (ratio
           (delta "prom_http_evloop_iteration_seconds_sum")
           (delta "prom_http_evloop_iteration_seconds_count")),
      "us" );
    ("wire.unattributed_us", us (client_mean -. server_mean), "us");
    ("batcher.wait_us", us wait, "us");
    ("batcher.batch_size", bsize, "queries");
    ("service.evaluate_us_per_query", us (per_item eval_s (Array.length sample)), "us");
    ("service.restore_ms", ms restore_s, "ms");
    ("service.swap_us", us swap_s, "us");
    ("calibration.standardize_us", us st.(0), "us");
    ("calibration.scan_us", us st.(1), "us");
    ("calibration.select_us", us st.(2), "us");
    ("calibration.dist_pvalue_us", us st.(3), "us");
    ("calibration.prepare_s", prepare_s, "s");
    ("calibration.append_us", us append_s, "us");
    ("calibration.reweight_us", us reweight_s, "us");
    ("calibration.rebuild_ms", ms rebuild_s, "ms");
    ("pvalue.table_us", us st.(4), "us");
    ("scores.vote_us", us st.(5), "us");
    ("detector.unattributed_us", us (per_q -. stage_sum), "us");
    ( "knn_index.rows_scanned_per_query",
      (if has_index then ratio scanned queries else float_of_int n),
      "rows" );
    ("knn_index.rows_pruned_frac", (if has_index then ratio pruned (scanned +. pruned) else 0.0), "ratio");
    ("knn_index.build_ms", ms build_s, "ms");
    ("kernels.ns_per_row", 1e9 *. scan_s /. float_of_int (Array.length vs * n), "ns");
    ("kernels.bytes_per_row", float_of_int (8 * Featmat.dim fm), "bytes");
    ("pool.domains", domains, "count");
    ("pool.busy_frac", ratio (delta "prom_pool_busy_seconds_total") (wall *. domains), "ratio");
    ("snapshot.encode_ms", ms encode_s, "ms");
    ("snapshot.decode_ms", ms decode_s, "ms");
    ("store.save_ms", ms store_s, "ms");
  ]
