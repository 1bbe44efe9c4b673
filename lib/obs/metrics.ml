(* Metrics registry: named counters, gauges, and log2-bucketed
   histograms.

   A registry is NOT thread-safe, on purpose: it follows the same
   per-domain-instances rule as Stats — each concurrent
   task records into its own registry (or its own metric cells), and
   the coordinator merges the shards at the join in task order, so the
   merged result is deterministic for every job count.  Registration
   (find-or-create by name) is an O(#metrics) scan over a handful of
   entries and is meant for setup paths; recording into an obtained
   cell is O(1) and allocation-free. *)

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float; mutable g_set : bool }

(* Bucket i of a histogram counts observations v with
   2^(i-1) < v <= 2^i (bucket 0: v <= 1); the last bucket is the
   catch-all.  62 buckets cover every finite latency this repo can
   measure. *)
let histogram_buckets = 62

type histogram = {
  h_name : string;
  h_counts : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_max : float;
}

type item = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { mutable items : item list (* reverse creation order *) }

let create () = { items = [] }

let item_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

let items t = List.rev t.items

let find t name =
  List.find_opt (fun it -> item_name it = name) t.items

let counter t name =
  match find t name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None ->
    let c = { c_name = name; c_value = 0 } in
    t.items <- Counter c :: t.items;
    c

let gauge t name =
  match find t name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")
  | None ->
    let g = { g_name = name; g_value = 0.0; g_set = false } in
    t.items <- Gauge g :: t.items;
    g

let histogram t name =
  match find t name with
  | Some (Histogram h) -> h
  | Some _ ->
    invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")
  | None ->
    let h =
      { h_name = name; h_counts = Array.make (histogram_buckets + 1) 0;
        h_count = 0; h_sum = 0.0; h_max = 0.0 }
    in
    t.items <- Histogram h :: t.items;
    h

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let counter_value c = c.c_value

let set g v =
  g.g_value <- v;
  g.g_set <- true

let gauge_value g = g.g_value

(* smallest bucket whose upper bound 2^i holds v; loop-only, so the
   hot path never boxes a float or calls frexp *)
let bucket_of v =
  if not (v > 1.0) then 0
  else begin
    let i = ref 0 and bound = ref 1.0 in
    while !i < histogram_buckets && v > !bound do
      i := !i + 1;
      bound := !bound *. 2.0
    done;
    !i
  end

let observe h v =
  let b = bucket_of v in
  h.h_counts.(b) <- h.h_counts.(b) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v > h.h_max then h.h_max <- v

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let hist_max h = h.h_max

let hist_mean h =
  if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count

(* upper-bound estimate: the bucket boundary at or above quantile q *)
let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let target =
      int_of_float (Float.round (q *. float_of_int h.h_count))
    in
    let target = max 1 (min h.h_count target) in
    let cum = ref 0 and b = ref 0 in
    (try
       for i = 0 to histogram_buckets do
         cum := !cum + h.h_counts.(i);
         if !cum >= target then begin
           b := i;
           raise Exit
         end
       done
     with Exit -> ());
    2.0 ** float_of_int !b
  end

(* ------------------------------------------------------------------ *)
(* Deterministic shard merging                                         *)
(* ------------------------------------------------------------------ *)

let merge_into ~into src =
  List.iter
    (fun it ->
      match it with
      | Counter c -> add (counter into c.c_name) c.c_value
      | Gauge g -> if g.g_set then set (gauge into g.g_name) g.g_value
      | Histogram h ->
        let dst = histogram into h.h_name in
        Array.iteri
          (fun i n -> dst.h_counts.(i) <- dst.h_counts.(i) + n)
          h.h_counts;
        dst.h_count <- dst.h_count + h.h_count;
        dst.h_sum <- dst.h_sum +. h.h_sum;
        if h.h_max > dst.h_max then dst.h_max <- h.h_max)
    (items src)

let merge a b =
  let t = create () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

(* Prometheus text exposition format, version 0.0.4: one # TYPE line
   per metric, histogram buckets as cumulative le-labelled counters
   with the mandatory +Inf bucket, _sum and _count.

   Metric names may carry a label part — everything from the first
   '{' on is emitted verbatim (labels must not contain spaces or
   commas inside values), only the base name is sanitized, and series
   sharing a base share one # TYPE line.  That is how the cluster
   router exports per-worker series (ocr_worker_up{worker="0"},
   ocr_queue_wait_ms{worker="0"}) from a label-less registry.  For a
   labeled histogram the le label is appended after the series labels
   on bucket lines (name_bucket{worker="0",le="1"}). *)
let split_labels name =
  match String.index_opt name '{' with
  | None -> (Obs.prometheus_name name, "")
  | Some i ->
    ( Obs.prometheus_name (String.sub name 0 i),
      String.sub name i (String.length name - i) )

let to_prometheus t =
  let b = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let type_line base kind =
    if not (Hashtbl.mem typed base) then begin
      Hashtbl.add typed base ();
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" base kind)
    end
  in
  List.iter
    (fun it ->
      match it with
      | Counter c ->
        let base, labels = split_labels c.c_name in
        type_line base "counter";
        Buffer.add_string b
          (Printf.sprintf "%s%s %d\n" base labels c.c_value)
      | Gauge g ->
        let base, labels = split_labels g.g_name in
        type_line base "gauge";
        Buffer.add_string b (Printf.sprintf "%s%s %g\n" base labels g.g_value)
      | Histogram h ->
        let n, labels = split_labels h.h_name in
        type_line n "histogram";
        (* the le label goes last, after any series labels *)
        let with_le le =
          if labels = "" then Printf.sprintf "{le=\"%s\"}" le
          else
            Printf.sprintf "%s,le=\"%s\"}"
              (String.sub labels 0 (String.length labels - 1))
              le
        in
        let top = ref 0 in
        Array.iteri (fun i c -> if c > 0 then top := i) h.h_counts;
        let cum = ref 0 in
        for i = 0 to !top do
          cum := !cum + h.h_counts.(i);
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" n
               (with_le (Printf.sprintf "%g" (2.0 ** float_of_int i)))
               !cum)
        done;
        Buffer.add_string b
          (Printf.sprintf "%s_bucket%s %d\n" n (with_le "+Inf") h.h_count);
        Buffer.add_string b
          (Printf.sprintf "%s_sum%s %g\n" n labels h.h_sum);
        Buffer.add_string b
          (Printf.sprintf "%s_count%s %d\n" n labels h.h_count))
    (items t);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Importing an exposition (the cluster's snapshot-merge entry point)  *)
(* ------------------------------------------------------------------ *)

(* Parses text produced by [to_prometheus] (same subset: # TYPE lines,
   space-free labels, log2 bucket boundaries) back into a registry, so
   a router can fold per-worker snapshots shipped as text into one
   cluster-wide registry with [merge_into].  Histogram max is not on
   the wire; it is restored as the upper bound of the top non-empty
   bucket. *)
let of_prometheus text =
  let t = create () in
  let kinds = Hashtbl.create 16 in
  (* base -> (le, cumulative) list ref, sum ref, count ref, cell *)
  let hists = Hashtbl.create 4 in
  let error = ref None in
  let fail lineno msg =
    if !error = None then
      error := Some (Printf.sprintf "line %d: %s" lineno msg)
  in
  let base_of name =
    match String.index_opt name '{' with
    | None -> name
    | Some i -> String.sub name 0 i
  in
  let chop name suffix =
    if Filename.check_suffix name suffix then
      Some (Filename.chop_suffix name suffix)
    else None
  in
  let hist_parts base =
    match Hashtbl.find_opt hists base with
    | Some parts -> parts
    | None ->
      let parts = (ref [], ref 0.0, ref 0, histogram t base) in
      Hashtbl.add hists base parts;
      parts
  in
  let labels_of name =
    match String.index_opt name '{' with
    | None -> ""
    | Some i -> String.sub name i (String.length name - i)
  in
  (* split a bucket line's label part into (series labels, le bound):
     "{worker=\"0\",le=\"1\"}" -> ("{worker=\"0\"}", 1.0).  Label
     values must not contain commas — the subset to_prometheus
     writes. *)
  let split_le labels lineno =
    if
      String.length labels < 2
      || labels.[0] <> '{'
      || labels.[String.length labels - 1] <> '}'
    then begin
      fail lineno "bucket line without labels";
      ("", infinity)
    end
    else begin
      let inner = String.sub labels 1 (String.length labels - 2) in
      let parts = String.split_on_char ',' inner in
      let is_le p =
        String.length p > 5
        && String.sub p 0 4 = {|le="|}
        && p.[String.length p - 1] = '"'
      in
      let le_parts, rest = List.partition is_le parts in
      match le_parts with
      | [ p ] ->
        let v = String.sub p 4 (String.length p - 5) in
        let le =
          if v = "+Inf" then infinity
          else
            match float_of_string_opt v with
            | Some f -> f
            | None ->
              fail lineno ("bad le value " ^ v);
              infinity
        in
        let rest_s =
          if rest = [] then "" else "{" ^ String.concat "," rest ^ "}"
        in
        (rest_s, le)
      | _ ->
        fail lineno ("no le label in " ^ labels);
        ("", infinity)
    end
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line = "" then ()
      else if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; base; kind ] -> Hashtbl.replace kinds base kind
        | _ -> () (* other comments are legal exposition *)
      end
      else
        match String.rindex_opt line ' ' with
        | None -> fail lineno "expected <name> <value>"
        | Some sp -> (
          let name = String.sub line 0 sp in
          let sval =
            String.sub line (sp + 1) (String.length line - sp - 1)
          in
          match float_of_string_opt sval with
          | None -> fail lineno ("bad value " ^ sval)
          | Some v -> (
            let base = base_of name in
            let hist_member suffix =
              match chop base suffix with
              | Some h when Hashtbl.find_opt kinds h = Some "histogram" ->
                Some h
              | _ -> None
            in
            match
              (hist_member "_bucket", hist_member "_sum", hist_member "_count")
            with
            | Some h, _, _ ->
              (* the histogram's registry key is base + series labels
                 (le stripped), so labeled families stay separate *)
              let rest, le = split_le (labels_of name) lineno in
              let buckets, _, _, _ = hist_parts (h ^ rest) in
              buckets := (le, int_of_float v) :: !buckets
            | _, Some h, _ ->
              let _, sum, _, _ = hist_parts (h ^ labels_of name) in
              sum := v
            | _, _, Some h ->
              let _, _, count, _ = hist_parts (h ^ labels_of name) in
              count := int_of_float v
            | None, None, None -> (
              match Hashtbl.find_opt kinds base with
              | Some "counter" -> add (counter t name) (int_of_float v)
              | Some "gauge" -> set (gauge t name) v
              | Some "histogram" ->
                fail lineno ("bare sample for histogram " ^ name)
              | Some k -> fail lineno ("unknown metric kind " ^ k)
              | None -> fail lineno ("no # TYPE for " ^ name)))))
    (String.split_on_char '\n' text);
  (* rebuild per-bucket counts from the cumulative le series *)
  Hashtbl.iter
    (fun base (buckets, sum, count, h) ->
      let finite =
        List.filter (fun (le, _) -> le <> infinity) !buckets
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let prev = ref 0 and top_cum = ref 0 in
      List.iter
        (fun (le, cum) ->
          let idx = bucket_of le in
          if cum < !prev then
            fail 0 (Printf.sprintf "non-monotone buckets for %s" base)
          else begin
            h.h_counts.(idx) <- h.h_counts.(idx) + (cum - !prev);
            if cum > !prev then h.h_max <- 2.0 ** float_of_int idx;
            prev := cum;
            top_cum := cum
          end)
        finite;
      if !count > !top_cum then
        (* +Inf strictly above the top finite bucket: catch-all *)
        h.h_counts.(histogram_buckets) <-
          h.h_counts.(histogram_buckets) + (!count - !top_cum);
      h.h_count <- !count;
      h.h_sum <- !sum)
    hists;
  match !error with
  | Some msg -> Error msg
  | None -> Ok t
