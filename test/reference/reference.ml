(* Reference implementations kept as oracles for the property tests
   and the E20 bench row.  They are the straightforward versions the
   library replaced, kept verbatim apart from the two count hooks:

   - the line-splitting text parsers (String.trim, split_on_char and
     int_of_string_opt on every line, arcs pushed through a
     Digraph builder), one near-copy per format;
   - Tarjan's algorithm over a per-node successor copy with a
     (node, cursor ref) frame per DFS step.

   [of_string]/[of_dimacs] take two optional hooks so a test can layer
   the arc-count rule on top: [on_problem lineno m] runs once the
   problem line parsed, [on_arc lineno] after each arc was added. *)

let fail lineno msg = failwith (Printf.sprintf "Graph_io: line %d: %s" lineno msg)

let of_string ?(on_problem = fun _ _ -> ()) ?(on_arc = fun _ -> ()) s =
  let builder = ref None in
  let lineno = ref 0 in
  let handle_line line =
    incr lineno;
    let line = String.trim line in
    if line <> "" && line.[0] <> '#' then
      match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
      | [ "p"; "ocr"; sn; sm ] -> (
        if !builder <> None then fail !lineno "duplicate problem line";
        match (int_of_string_opt sn, int_of_string_opt sm) with
        | Some n, Some m when n >= 0 ->
          on_problem !lineno m;
          builder := Some (Digraph.create_builder n)
        | _ -> fail !lineno "malformed problem line")
      | "a" :: rest -> (
        let b =
          match !builder with
          | Some b -> b
          | None -> fail !lineno "arc before problem line"
        in
        let ints = List.map int_of_string_opt rest in
        match ints with
        | [ Some u; Some v; Some w ] -> (
          (try ignore (Digraph.add_arc b ~src:(u - 1) ~dst:(v - 1) ~weight:w ())
           with Invalid_argument m -> fail !lineno m);
          on_arc !lineno)
        | [ Some u; Some v; Some w; Some t ] -> (
          (try
             ignore
               (Digraph.add_arc b ~src:(u - 1) ~dst:(v - 1) ~weight:w
                  ~transit:t ())
           with Invalid_argument m -> fail !lineno m);
          on_arc !lineno)
        | _ -> fail !lineno "malformed arc line")
      | tok :: _ -> fail !lineno (Printf.sprintf "unknown record %S" tok)
      | [] -> ()
  in
  String.split_on_char '\n' s |> List.iter handle_line;
  match !builder with
  | Some b -> Digraph.build b
  | None -> failwith "Graph_io: missing problem line"

let of_dimacs ?(on_problem = fun _ _ -> ()) ?(on_arc = fun _ -> ()) s =
  let builder = ref None in
  let lineno = ref 0 in
  let handle_line line =
    incr lineno;
    let line = String.trim line in
    if line <> "" && line.[0] <> 'c' then
      match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
      | [ "p"; "sp"; sn; sm ] -> (
        if !builder <> None then fail !lineno "duplicate problem line";
        match (int_of_string_opt sn, int_of_string_opt sm) with
        | Some n, Some m when n >= 0 ->
          on_problem !lineno m;
          builder := Some (Digraph.create_builder n)
        | _ -> fail !lineno "malformed problem line")
      | [ "a"; su; sv; sw ] -> (
        let b =
          match !builder with
          | Some b -> b
          | None -> fail !lineno "arc before problem line"
        in
        match (int_of_string_opt su, int_of_string_opt sv, int_of_string_opt sw) with
        | Some u, Some v, Some w -> (
          (try ignore (Digraph.add_arc b ~src:(u - 1) ~dst:(v - 1) ~weight:w ())
           with Invalid_argument m -> fail !lineno m);
          on_arc !lineno)
        | _ -> fail !lineno "malformed arc line")
      | tok :: _ -> fail !lineno (Printf.sprintf "unknown record %S" tok)
      | [] -> ()
  in
  String.split_on_char '\n' s |> List.iter handle_line;
  match !builder with
  | Some b -> Digraph.build b
  | None -> failwith "Graph_io: missing problem line"

(* The arc-count rule Graph_io enforces, expressed over the hooks: a
   declared count that is negative or exceeds what the input could
   hold is a malformed problem line, an arc past it fails at its line,
   and a short input fails at the end. *)
let with_count_rule parse s =
  let declared = ref 0 and found = ref 0 in
  let on_problem lineno m =
    if m < 0 || m > String.length s / 7 then
      fail lineno "malformed problem line";
    declared := m
  in
  let on_arc lineno =
    if !found = !declared then
      fail lineno (Printf.sprintf "more arcs than the %d declared" !declared);
    incr found
  in
  let g = parse ~on_problem ~on_arc s in
  if !found < !declared then
    failwith
      (Printf.sprintf "Graph_io: problem line declares %d arcs, found %d"
         !declared !found);
  g

let counted_of_string = with_count_rule (fun ~on_problem ~on_arc s ->
    of_string ~on_problem ~on_arc s)

let counted_of_dimacs = with_count_rule (fun ~on_problem ~on_arc s ->
    of_dimacs ~on_problem ~on_arc s)

(* Iterative Tarjan.  For each node we keep the classic index/lowlink
   pair; the explicit stack stores (node, next-out-arc-position) frames. *)
let scc_components g =
  let n = Digraph.n g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let component = Array.make n (-1) in
  let tarjan_stack = Vec.create () in
  let next_index = ref 0 in
  let comp_count = ref 0 in
  (* Materialized successor arrays give O(1) cursor access per frame. *)
  let out_adj = Array.make n [||] in
  for u = 0 to n - 1 do
    let acc = Vec.create () in
    Digraph.iter_out g u (fun a -> Vec.push acc (Digraph.dst g a));
    out_adj.(u) <- Vec.to_array acc
  done;
  let frames = Vec.create () in
  let start root =
    Vec.push frames (root, ref 0);
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    Vec.push tarjan_stack root;
    on_stack.(root) <- true;
    while not (Vec.is_empty frames) do
      let u, cursor = Vec.get frames (Vec.length frames - 1) in
      let succs = out_adj.(u) in
      if !cursor < Array.length succs then begin
        let v = succs.(!cursor) in
        incr cursor;
        if index.(v) < 0 then begin
          index.(v) <- !next_index;
          lowlink.(v) <- !next_index;
          incr next_index;
          Vec.push tarjan_stack v;
          on_stack.(v) <- true;
          Vec.push frames (v, ref 0)
        end
        else if on_stack.(v) then
          lowlink.(u) <- min lowlink.(u) index.(v)
      end
      else begin
        ignore (Vec.pop frames);
        if lowlink.(u) = index.(u) then begin
          (* u is the root of a component: pop it off the Tarjan stack *)
          let continue = ref true in
          while !continue do
            let w = Vec.pop tarjan_stack in
            on_stack.(w) <- false;
            component.(w) <- !comp_count;
            if w = u then continue := false
          done;
          incr comp_count
        end;
        if not (Vec.is_empty frames) then begin
          let p, _ = Vec.get frames (Vec.length frames - 1) in
          lowlink.(p) <- min lowlink.(p) lowlink.(u)
        end
      end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then start v
  done;
  (!comp_count, component)
