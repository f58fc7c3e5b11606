type entry = { at : Sim_time.t; tag : string; detail : string }

type t = {
  capacity : int;
  enabled : bool;
  buffer : entry Queue.t;
}

let create ?(capacity = 65536) ?(enabled = true) () =
  { capacity; enabled; buffer = Queue.create () }

let enabled t = t.enabled

let record t ~at ~tag detail =
  if t.enabled then begin
    Queue.push { at; tag; detail } t.buffer;
    if Queue.length t.buffer > t.capacity then ignore (Queue.pop t.buffer)
  end

(* The disabled branch must not format: callers sit on per-message hot
   paths and pretty-printing the arguments would dominate their
   allocation even when the trace is off. The formatter it threads is a
   dedicated sink — [ikfprintf] never writes, but handing it the shared
   [Format.str_formatter] would leak that global into every caller's
   type and invite accidental interleaving with real [str_formatter]
   users. *)
let null_formatter = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let recordf t ~at ~tag fmt =
  if t.enabled then
    Format.kasprintf (fun detail -> record t ~at ~tag detail) fmt
  else Format.ikfprintf (fun _ -> ()) null_formatter fmt

let entries t = List.of_seq (Queue.to_seq t.buffer)

let find t ~tag = List.filter (fun e -> String.equal e.tag tag) (entries t)

let count t ~tag =
  Queue.fold (fun acc e -> if String.equal e.tag tag then acc + 1 else acc) 0 t.buffer

let length t = Queue.length t.buffer
let clear t = Queue.clear t.buffer

let pp_entry fmt e =
  Format.fprintf fmt "[%a] %s: %s" Sim_time.pp e.at e.tag e.detail
