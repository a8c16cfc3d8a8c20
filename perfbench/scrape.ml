(* Reading the server's Prometheus exposition (GET /metrics). *)

(* Sum of every sample of metric [name] (all label sets). *)
let scrape text name =
  let n = String.length name in
  List.fold_left
    (fun acc line ->
      if String.length line > n
         && String.sub line 0 n = name
         && (line.[n] = ' ' || line.[n] = '{')
      then
        match String.rindex_opt line ' ' with
        | Some i -> (
            match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
            | Some v -> acc +. v
            | None -> acc)
        | None -> acc
      else acc)
    0.0
    (String.split_on_char '\n' text)

(* Cumulative bucket counts of histogram [name]: (upper bound, count). *)
let buckets text name =
  let pfx = name ^ "_bucket{le=\"" in
  let pl = String.length pfx in
  List.filter_map
    (fun line ->
      if String.length line > pl && String.sub line 0 pl = pfx then
        match (String.index_from_opt line pl '"', String.rindex_opt line ' ') with
        | Some q, Some sp ->
            let le = String.sub line pl (q - pl) in
            let v = float_of_string (String.sub line (sp + 1) (String.length line - sp - 1)) in
            Some ((if le = "+Inf" then infinity else float_of_string le), v)
        | _ -> None
      else None)
    (String.split_on_char '\n' text)

(* Median of the observations a histogram gained between two scrapes,
   interpolated linearly inside its bucket. *)
let hist_p50 ~before ~after name =
  let d =
    List.map2 (fun (le, c0) (_, c1) -> (le, c1 -. c0)) (buckets before name) (buckets after name)
  in
  let total = match List.rev d with (_, c) :: _ -> c | [] -> 0.0 in
  let target = total /. 2.0 in
  let rec go lo prev = function
    | [] -> nan
    | (le, c) :: rest ->
        if c >= target && c > prev then
          let hi = if Float.is_finite le then le else lo in
          lo +. ((hi -. lo) *. (target -. prev) /. (c -. prev))
        else go (if Float.is_finite le then le else lo) c rest
  in
  if total <= 0.0 then nan else go 0.0 0.0 d

let metrics_text port =
  match Loadgen.get ~port "/metrics" with
  | Some r when r.Prom_server.Http.status = 200 -> r.Prom_server.Http.resp_body
  | _ -> failwith "GET /metrics failed"
