(* Metrics registry. See obs.mli for the contract.

   Hot-path discipline: counters and gauges are one unboxed [int
   Atomic.t] each ([fetch_and_add] / [set] — no allocation, no lock);
   histograms keep one shard per recording domain behind a [Domain.DLS]
   key so the verify pool's workers never contend with the event loop,
   and the shard update is plain int-array arithmetic. Everything
   allocation-ful (registration, scraping, merging) happens off the hot
   path, under the registry mutex. *)

module Counter = struct
  type t = int Atomic.t

  let make () : t = Atomic.make 0
  let incr (t : t) = ignore (Atomic.fetch_and_add t 1 : int)
  let add (t : t) n = ignore (Atomic.fetch_and_add t n : int)
  let value (t : t) = Atomic.get t
  let mirror (t : t) v = Atomic.set t v
end

module Gauge = struct
  type t = int Atomic.t

  let make () : t = Atomic.make 0
  let set (t : t) v = Atomic.set t v
  let add (t : t) n = ignore (Atomic.fetch_and_add t n : int)
  let value (t : t) = Atomic.get t
end

module Histogram = struct
  (* floor(log2 v) in six halving steps; v=0 answers 0 like v=1. *)
  let[@inline] msb v =
    if v <= 1 then 0
    else begin
      let b = ref 0 in
      let v = ref v in
      if !v lsr 32 <> 0 then begin b := !b + 32; v := !v lsr 32 end;
      if !v lsr 16 <> 0 then begin b := !b + 16; v := !v lsr 16 end;
      if !v lsr 8 <> 0 then begin b := !b + 8; v := !v lsr 8 end;
      if !v lsr 4 <> 0 then begin b := !b + 4; v := !v lsr 4 end;
      if !v lsr 2 <> 0 then begin b := !b + 2; v := !v lsr 2 end;
      if !v lsr 1 <> 0 then b := !b + 1;
      !b
    end

  (* Log-linear slots (HdrHistogram's layout with 32 sub-buckets): a
     value below 32 has a slot of its own; above, each power of two
     [2^m, 2^(m+1)) splits into 32 equal sub-buckets of width 2^(m-5),
     at most 1/32 of their lower edge. m is at most 61 (max_int is
     2^62 - 1), so the last slot is ((61 - 4) lsl 5) + 31 = 1855. *)
  let nslots = 1856

  let[@inline] slot_of v =
    if v < 32 then v
    else
      let m = msb v in
      ((m - 4) lsl 5) + ((v lsr (m - 5)) land 31)

  (* The smallest value of slot [i] and the slot's width. *)
  let slot_low i = if i < 32 then i else (32 + (i land 31)) lsl ((i lsr 5) - 1)
  let slot_width i = if i < 32 then 1 else 1 lsl ((i lsr 5) - 1)

  (* The exposition's power-of-two buckets: log2 bucket [b] holds
     [\[2^b, 2^(b+1))], with 0 and 1 together in bucket 0. *)
  let nbuckets = 63
  let bucket_of_slot i = if i < 32 then msb i else (i lsr 5) + 4

  type shard = {
    counts : int array;
    mutable sum : int;
    mutable n : int;
    mutable min : int;
    mutable max : int;
  }

  (* The DLS key's init closure runs in whichever domain first records,
     so shard registration takes the histogram's mutex; recording after
     that first touch is lock-free. The shard list only ever grows
     (domains are few and pooled), so scrape-time merging under the
     mutex sees every shard that ever recorded. *)
  type t = {
    mu : Mutex.t;
    mutable shards : shard list;
    key : shard Domain.DLS.key;
  }

  let create () =
    let mu = Mutex.create () in
    let shards = ref [] in
    let t_ref = ref None in
    let key =
      Domain.DLS.new_key (fun () ->
          let s = { counts = Array.make nslots 0; sum = 0; n = 0; min = max_int; max = 0 } in
          (match !t_ref with
          | Some t ->
            Mutex.protect mu (fun () -> t.shards <- s :: t.shards)
          | None -> shards := s :: !shards);
          s)
    in
    let t = { mu; shards = !shards; key } in
    t_ref := Some t;
    t

  let record t v =
    let v = if v < 0 then 0 else v in
    let s = Domain.DLS.get t.key in
    let i = slot_of v in
    Array.unsafe_set s.counts i (Array.unsafe_get s.counts i + 1);
    s.sum <- s.sum + v;
    s.n <- s.n + 1;
    if v < s.min then s.min <- v;
    if v > s.max then s.max <- v

  type snapshot = {
    slots : int array;
    n : int;
    sum : int;
    lo : int; (* max_int while empty *)
    hi : int;
  }

  (* Scrape-time merge: shard fields are read without synchronizing with
     concurrent recorders — a snapshot may be a few observations behind
     a racing domain, which is inherent to scraping and harmless (counts
     only grow). *)
  let snapshot t =
    let shards = Mutex.protect t.mu (fun () -> t.shards) in
    let slots = Array.make nslots 0 in
    List.fold_left
      (fun (acc : snapshot) (s : shard) ->
        for i = 0 to nslots - 1 do
          slots.(i) <- slots.(i) + s.counts.(i)
        done;
        { acc with
          n = acc.n + s.n;
          sum = acc.sum + s.sum;
          lo = Int.min acc.lo s.min;
          hi = Int.max acc.hi s.max })
      { slots; n = 0; sum = 0; lo = max_int; hi = 0 }
      shards

  let buckets_of (s : snapshot) =
    let b = Array.make nbuckets 0 in
    Array.iteri
      (fun i c -> if c > 0 then b.(bucket_of_slot i) <- b.(bucket_of_slot i) + c)
      s.slots;
    b

  let count t = (snapshot t).n
  let sum t = (snapshot t).sum
  let buckets t = buckets_of (snapshot t)

  module Snapshot = struct
    type t = snapshot

    let count (s : t) = s.n
    let sum (s : t) = s.sum
    let mean (s : t) = if s.n = 0 then nan else float_of_int s.sum /. float_of_int s.n
    let min (s : t) = if s.n = 0 then nan else float_of_int s.lo
    let max (s : t) = if s.n = 0 then nan else float_of_int s.hi

    (* Nearest rank: the slot holding the ceil(q n)-th smallest value,
       estimated by the midpoint of its integer range and clamped into
       the observed [lo, hi]. *)
    let quantile (s : t) q =
      if not (0. <= q && q <= 1.) then invalid_arg "Obs.Histogram.Snapshot.quantile";
      if s.n = 0 then nan
      else begin
        let rank = Int.max 1 (int_of_float (Float.ceil (q *. float_of_int s.n))) in
        let rec walk i acc =
          let acc = acc + s.slots.(i) in
          if acc >= rank || i = nslots - 1 then i else walk (i + 1) acc
        in
        let i = walk 0 0 in
        let mid = float_of_int (slot_low i) +. (float_of_int (slot_width i - 1) /. 2.) in
        Float.min (float_of_int s.hi) (Float.max (float_of_int s.lo) mid)
      end

    let pp_summary ~unit fmt (s : t) =
      let scale, suffix = unit in
      if s.n = 0 then Format.fprintf fmt "n=0"
      else
        let v x = x /. scale in
        Format.fprintf fmt "n=%d mean=%.4f%s p50=%.4f%s p99=%.4f%s max=%.4f%s" s.n
          (v (mean s)) suffix
          (v (quantile s 0.5)) suffix
          (v (quantile s 0.99)) suffix
          (v (max s)) suffix
  end
end

module Registry = struct
  type inst =
    | Counter of Counter.t
    | Gauge of Gauge.t
    | Histogram of Histogram.t

  type metric = {
    name : string;
    labels : (string * string) list; (* sorted by key *)
    help : string option;
    inst : inst;
  }

  type t = {
    mu : Mutex.t;
    mutable metrics : metric list; (* registration order, newest first *)
    mutable collectors : (unit -> unit) list; (* newest first *)
  }

  let create () = { mu = Mutex.create (); metrics = []; collectors = [] }

  let kind_name = function
    | Counter _ -> "counter"
    | Gauge _ -> "gauge"
    | Histogram _ -> "histogram"

  let same_kind a b =
    match (a, b) with
    | Counter _, Counter _ | Gauge _, Gauge _ | Histogram _, Histogram _ -> true
    | _ -> false

  let sort_labels labels =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels

  (* Idempotent registration: one instrument per (name, labels); a kind
     mismatch is a programming error worth failing loudly on. *)
  let register t ~name ~labels ~help fresh =
    let labels = sort_labels labels in
    Mutex.protect t.mu (fun () ->
        match
          List.find_opt (fun m -> String.equal m.name name && m.labels = labels) t.metrics
        with
        | Some m ->
          let want = fresh () in
          if not (same_kind m.inst want) then
            invalid_arg
              (Printf.sprintf "Obs.Registry: %s already registered as a %s" name
                 (kind_name m.inst));
          m.inst
        | None ->
          let inst = fresh () in
          t.metrics <- { name; labels; help; inst } :: t.metrics;
          inst)

  let counter t ?help ?(labels = []) name =
    match register t ~name ~labels ~help (fun () -> Counter (Counter.make ())) with
    | Counter c -> c
    | _ -> assert false

  let gauge t ?help ?(labels = []) name =
    match register t ~name ~labels ~help (fun () -> Gauge (Gauge.make ())) with
    | Gauge g -> g
    | _ -> assert false

  let histogram t ?help ?(labels = []) name =
    match register t ~name ~labels ~help (fun () -> Histogram (Histogram.create ())) with
    | Histogram h -> h
    | _ -> assert false

  let on_collect t f = Mutex.protect t.mu (fun () -> t.collectors <- f :: t.collectors)

  (* -- exposition ----------------------------------------------------- *)

  let escape_label_value v =
    let b = Buffer.create (String.length v) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      v;
    Buffer.contents b

  let label_str labels =
    match labels with
    | [] -> ""
    | labels ->
      let parts =
        List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels
      in
      "{" ^ String.concat "," parts ^ "}"

  (* [le] upper bound (inclusive) of log2 bucket [b]: the largest value
     with floor(log2 v) = b. *)
  let bucket_le b = (1 lsl (b + 1)) - 1

  let emit_histogram buf name labels h =
    let snap = Histogram.snapshot h in
    let counts = Histogram.buckets_of snap in
    let sum = Histogram.Snapshot.sum snap and n = Histogram.Snapshot.count snap in
    let hi = ref (-1) in
    Array.iteri (fun i c -> if c > 0 then hi := i) counts;
    let cum = ref 0 in
    for b = 0 to !hi do
      cum := !cum + counts.(b);
      let labels = labels @ [ ("le", string_of_int (bucket_le b)) ] in
      Buffer.add_string buf (Printf.sprintf "%s_bucket%s %d\n" name (label_str labels) !cum)
    done;
    Buffer.add_string buf
      (Printf.sprintf "%s_bucket%s %d\n" name (label_str (labels @ [ ("le", "+Inf") ])) n);
    Buffer.add_string buf (Printf.sprintf "%s_sum%s %d\n" name (label_str labels) sum);
    Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" name (label_str labels) n)

  let expose t =
    let collectors = Mutex.protect t.mu (fun () -> List.rev t.collectors) in
    List.iter (fun f -> f ()) collectors;
    let metrics = Mutex.protect t.mu (fun () -> t.metrics) in
    let metrics =
      List.sort
        (fun a b ->
          match String.compare a.name b.name with
          | 0 -> compare a.labels b.labels
          | c -> c)
        metrics
    in
    let buf = Buffer.create 4096 in
    let last_family = ref "" in
    List.iter
      (fun m ->
        if not (String.equal !last_family m.name) then begin
          last_family := m.name;
          (match m.help with
          | Some h -> Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" m.name h)
          | None -> ());
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" m.name (kind_name m.inst))
        end;
        match m.inst with
        | Counter c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" m.name (label_str m.labels) (Counter.value c))
        | Gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" m.name (label_str m.labels) (Gauge.value g))
        | Histogram h -> emit_histogram buf m.name m.labels h)
      metrics;
    Buffer.contents buf

  let dump_file t path =
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    (try output_string oc (expose t)
     with e ->
       close_out_noerr oc;
       raise e);
    close_out oc;
    Sys.rename tmp path
end
