(* The one owner of the BENCH_*.json baselines and the regression gate.

   A bench declares each of its row shapes as a schema: the JSON fields
   in file order, each with its format, whether it identifies the row
   (a key), and, for a gated metric, the direction it must not move in.
   From the schemas this module writes the baseline (one row per line,
   the shape [scripts/bench_trend.sh] reads), reads it back, checks a run
   against it, renders the console tables and prints the bench's one
   verdict line, which [scripts/ci.sh] greps:

     <id>: PASS no regressions > 2.0x against <file> (worst <row> <metric> <r>x)
     <id>: FAIL <k> gate(s) failed against <file> (worst <row> <metric> ...)

   The rule: a gated metric fails when it is more than [factor] times
   worse than the baseline row with the same key values, and, where its
   column sets a floor, also worse by more than that absolute amount. A
   current row with no baseline row is not compared. A zero against a
   positive higher-is-better baseline is a regression. A missing or empty
   baseline fails: deleting the file must not turn the gate green.
   Absolute checks (budgets and invariants that need no baseline) stay in
   their benches and join the same verdict as [absolute] failures. *)

let factor = 2.0

type dir = Lower_is_better | Higher_is_better
type fmt = Text | Fixed of int (* decimals; 0 for counts *)
type column = { name : string; fmt : fmt; key : bool; gate : dir option; floor : float }
type value = Str of string | Num of float
type 'a field = column * ('a -> value)

let col ?(key = false) ?gate ?(floor = 0.) fmt name = { name; fmt; key; gate; floor }
let str ?key name get : _ field = (col ?key Text name, fun r -> Str (get r))
let int ?key name get : _ field = (col ?key (Fixed 0) name, fun r -> Num (float_of_int (get r)))

let float ?gate ?floor decimals name get : _ field =
  (col ?gate ?floor (Fixed decimals) name, fun r -> Num (get r))

(* A run's rows of one shape, ready to write, check or render. *)
type table = { columns : column list; rows : value list list }

let table fields records =
  { columns = List.map fst fields;
    rows = List.map (fun r -> List.map (fun (_, get) -> get r) fields) records }

let cell c = function
  | Str s -> s
  | Num x -> (
    match c.fmt with Fixed d -> Printf.sprintf "%.*f" d x | Text -> Printf.sprintf "%g" x)

(* ------------------------------------------------------------------ *)
(* The file                                                            *)
(* ------------------------------------------------------------------ *)

let row_json columns values =
  let field c v =
    Printf.sprintf "%S: %s" c.name
      (match v with Str s -> Printf.sprintf "%S" s | Num _ -> cell c v)
  in
  "{" ^ String.concat ", " (List.map2 field columns values) ^ "}"

(* [header] fields are raw JSON values written between [generated_by]
   and the rows; they are a record of the run, never read back. *)
let to_string ~id ?(header = []) tables =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"generated_by\": \"dune exec bench/main.exe -- --only %s\",\n" id;
  List.iter (fun (k, raw) -> Printf.bprintf b "  %S: %s,\n" k raw) header;
  Buffer.add_string b "  \"benchmarks\": [\n";
  let rows = List.concat_map (fun t -> List.map (row_json t.columns) t.rows) tables in
  List.iteri
    (fun i row -> Printf.bprintf b "    %s%s\n" row (if i = List.length rows - 1 then "" else ","))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

(* One flat JSON object per line with string and number values: the
   shape [row_json] writes. Any other line (the header fields, the
   brackets) is not a row and gives [None]. *)
let strip_comma s =
  if String.ends_with ~suffix:"," s then String.sub s 0 (String.length s - 1) else s

let parse_line line =
  let line = strip_comma (String.trim line) in
  let len = String.length line and pos = ref 0 in
  let peek () = if !pos < len then line.[!pos] else '\000' in
  let expect c = if peek () = c then incr pos else raise Exit in
  let skip_ws () = while peek () = ' ' do incr pos done in
  let until stop =
    let start = !pos in
    while !pos < len && not (stop line.[!pos]) do
      if line.[!pos] = '\\' then incr pos;
      incr pos
    done;
    String.sub line start (min len !pos - start)
  in
  let string () =
    expect '"';
    let s = Scanf.unescaped (until (( = ) '"')) in
    expect '"';
    s
  in
  let value () =
    if peek () = '"' then Str (string ())
    else
      match float_of_string_opt (until (fun c -> c = ',' || c = '}' || c = ' ')) with
      | Some x -> Num x
      | None -> raise Exit
  in
  let rec fields acc =
    skip_ws ();
    let k = string () in
    skip_ws ();
    expect ':';
    skip_ws ();
    let acc = (k, value ()) :: acc in
    skip_ws ();
    match peek () with
    | ',' -> incr pos; fields acc
    | '}' -> incr pos; List.rev acc
    | _ -> raise Exit
  in
  match
    expect '{';
    fields []
  with
  | fs -> if !pos = len then Some fs else None
  | exception (Exit | Scanf.Scan_failure _) -> None

(* Every row of [file]; [] when it is missing. *)
let read file =
  if not (Sys.file_exists file) then []
  else
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n' |> List.filter_map parse_line

(* The run-record fields a bench writes above its rows, as raw JSON. *)
let header_of lines =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.starts_with ~prefix:"  \"" line && parse_line line = None ->
        let key = String.sub line 3 (i - 4) in
        let raw = String.sub line (i + 1) (String.length line - i - 1) in
        let raw = strip_comma (String.trim raw) in
        if key = "generated_by" || key = "benchmarks" then None else Some (key, raw)
      | _ -> None)
    lines

(* [file]'s run-record fields; [] when it is missing. *)
let read_header file =
  if not (Sys.file_exists file) then []
  else
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n' |> header_of

(* The baseline rows of [columns]'s shape: the lines with exactly its
   field names, in order. *)
let rows_of columns baseline =
  let names = List.map (fun c -> c.name) columns in
  List.filter_map
    (fun fs -> if List.map fst fs = names then Some (List.map snd fs) else None)
    baseline

(* ------------------------------------------------------------------ *)
(* The gate                                                            *)
(* ------------------------------------------------------------------ *)

(* [ratio] is how many times worse than the baseline (> 1 is worse);
   infinite for an absolute failure or a collapse to zero. *)
type failure = { what : string; detail : string; ratio : float }

(* A failure of an absolute check: a budget or invariant that needs no baseline. *)
let failure what detail = { what; detail; ratio = infinity }

let worse_ratio dir ~current ~base =
  if base <= 0. then None (* nothing to compare against *)
  else
    match dir with
    | Lower_is_better -> Some (current /. base)
    | Higher_is_better -> Some (if current > 0. then base /. current else infinity)

(* One gated metric of a row against its baseline value: [None] when it
   is not gated, there is nothing to compare, or the two differ by no
   more than the column's floor; else the comparison and whether it
   fails. *)
let judge ~label c cur base =
  match (c.gate, cur, base) with
  | Some dir, Num current, Num base when Float.abs (current -. base) > c.floor -> (
    match worse_ratio dir ~current ~base with
    | None -> None
    | Some ratio ->
      let what = label ^ " " ^ c.name in
      let detail =
        Printf.sprintf "%s: %s vs baseline %s (%s)" what (cell c cur) (cell c (Num base))
          (if Float.is_finite ratio then Printf.sprintf "%.2fx worse" ratio
           else "collapsed to zero")
      in
      Some ({ what; detail; ratio }, ratio > factor))
  | _ -> None

(* Every gated (row, metric) pair that has a baseline row. *)
let compare ~baseline tables =
  List.concat_map
    (fun t ->
      let base_rows = rows_of t.columns baseline in
      let keys row = List.filter (fun (c, _) -> c.key) (List.combine t.columns row) in
      List.concat_map
        (fun row ->
          match List.find_opt (fun b -> keys b = keys row) base_rows with
          | None -> []
          | Some b ->
            let label =
              String.concat " " (List.map (fun (c, v) -> c.name ^ "=" ^ cell c v) (keys row))
            in
            List.concat
              (List.map2
                 (fun c (cur, base) -> Option.to_list (judge ~label c cur base))
                 t.columns (List.combine row b)))
        t.rows)
    tables

let worst = function
  | [] -> ""
  | f :: fs ->
    let w = List.fold_left (fun w f -> if f.ratio > w.ratio then f else w) f fs in
    if Float.is_finite w.ratio then Printf.sprintf " (worst %s %.2fx)" w.what w.ratio
    else Printf.sprintf " (worst %s)" w.what

(* [(ok, lines)]: the failure lines, then the verdict line. *)
let verdict ~id ~file ~baseline ?(absolute = []) tables =
  let checked = compare ~baseline tables in
  let missing =
    if baseline = [] then [ failure file (file ^ " is missing or empty: no baseline to check") ]
    else []
  in
  let failed = List.filter_map (fun (f, failed) -> if failed then Some f else None) checked in
  match missing @ failed @ absolute with
  | [] ->
    ( true,
      [ Printf.sprintf "%s: PASS no regressions > %.1fx against %s%s" id factor file
          (worst (List.map fst checked)) ] )
  | fs ->
    ( false,
      List.map (fun f -> "GATE " ^ f.detail) fs
      @ [ Printf.sprintf "%s: FAIL %d gate(s) failed against %s%s" id (List.length fs) file
            (worst fs) ] )

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let render t =
  Stats.Text_table.render
    ~headers:(List.map (fun c -> c.name) t.columns)
    (List.map (List.map2 cell t.columns) t.rows)

let say s = Format.printf "%s@." s

(* Render [tables]; then with [check] gate them against [file] and exit 1
   on FAIL, leaving the file untouched, and without it write [file]. *)
let finish ~id ~file ~check ?header ?(absolute = []) tables =
  List.iter (fun t -> say (render t ^ "\n")) tables;
  if check then begin
    let ok, lines = verdict ~id ~file ~baseline:(read file) ~absolute tables in
    List.iter say lines;
    if not ok then exit 1
  end
  else begin
    List.iter (fun f -> say ("GATE " ^ f.detail)) absolute;
    Out_channel.with_open_text file (fun oc ->
        output_string oc (to_string ~id ?header tables));
    say ("baseline written to " ^ file)
  end
