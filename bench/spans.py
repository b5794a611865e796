"""Span recorder for the benchmark worker.

`install(tracer)` replaces every public function of the seven sceneflowgen
layers with a wrapper, on the defining module and on every module that
bound the same function by `from ... import` (so `pipeline.rasterize_frame`
and `cli.estimate_disparity` are wrapped too). Spans and counters stay in
memory; the worker writes them out once, when the operation ends.

With `record=False` a wrapper only notes the time of the first call into a
layer other than `scene`, which ends the set-up phase; nothing else is
recorded. That first call is noted in both modes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
import weakref

LAYERS = ("scene", "render", "groundtruth", "pipeline", "formats", "match",
          "metrics")
# Private functions that another module calls as if public.
_EXTRA = {"pipeline": ("_write_frame",)}


class Tracer:
    def __init__(self, record=True, on_first_call=None):
        self.record = record
        self.on_first_call = on_first_call
        self.first_call = None
        self.spans = []  # [name, layer, start, end, parent index, thread id]
        self.counters = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._resident = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def count(self, key, value=1):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        with self._lock:
            self.counters[key] = max(self.counters.get(key, 0), value)

    def call(self, name, layer, fn, args, kwargs, observer=None):
        if self.first_call is None and layer not in ("scene", "cli"):
            self.first_call = time.monotonic()
            if self.on_first_call is not None:
                self.on_first_call(self.first_call)
        if not self.record:
            return fn(*args, **kwargs)
        stack = self._stack()
        # A span opened on a pool thread belongs to the span the main
        # thread is in, which submitted the work and waits for it.
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        span = [name, layer, time.monotonic(), None, parent,
                threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.monotonic()
            stack.pop()
        if observer is not None:
            observer(self, args, kwargs, result)
        return result

    def root(self, fn, *args):
        """Run fn under the operation's root span (layer `cli`)."""
        return self.call("cli.op", "cli", fn, args, {})

    def _track_views(self, passes):
        with self._lock:
            self._resident += 1
            resident = self._resident
        self.peak("views_resident_max", resident)
        weakref.finalize(passes, self._view_released)

    def _view_released(self):
        with self._lock:
            self._resident -= 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_spec(tracer, args, kwargs, spec):
    objects = spec.all_objects()
    tracer.count("scene.specs")
    tracer.count("scene.objects", len(objects))
    tracer.count("scene.triangles",
                  sum(len(o.mesh.triangles) for o in objects))


def _observe_view(tracer, args, kwargs, passes):
    spec = _arg(args, kwargs, 0, "spec")
    tracer.count("render.triangles",
                  sum(len(o.mesh.triangles) for o in spec.all_objects()))
    tracer.count("render.covered_px", int((passes.object_index > 0).sum()))
    tracer.count("render.px", passes.object_index.size)
    tracer._track_views(passes)


def _observe_loaded(tracer, args, kwargs, passes):
    tracer._track_views(passes)


def _observe_occlusion(tracer, args, kwargs, mask):
    tracer.count("groundtruth.occluded_px", int(mask.sum()))
    tracer.count("groundtruth.occlusion_px", mask.size)


def _observe_correlate(tracer, args, kwargs, volume):
    h, w, c = _arg(args, kwargs, 0, "a").shape
    d = _arg(args, kwargs, 2, "max_disp")
    tracer.count("match.cost_volume_bytes", h * w * d * 8)
    # cost[y, x, d] for x >= d: one multiply-add per channel
    tracer.count("match.correlate_macs", h * c * (d * w - d * (d - 1) // 2))


def _encoded(tracer, args, kwargs, payload):
    if isinstance(payload, str):
        payload = payload.encode()
    tracer.count("formats.bytes_encoded", len(payload))
    tracer.count("formats.files_written")


def _decoded(tracer, args, kwargs, result):
    payload = args[0] if args else next(iter(kwargs.values()))
    tracer.count("formats.bytes_decoded", len(payload))


_OBSERVERS = {
    "scene.generate_flyingthings_scene": _observe_spec,
    "scene.generate_driving_preset": _observe_spec,
    "render.rasterize_frame": _observe_view,
    "pipeline.load_frame_passes": _observe_loaded,
    "groundtruth.compute_occlusion_mask": _observe_occlusion,
    "match.correlate_1d": _observe_correlate,
}


def _observer(span_name, layer, name):
    if layer == "formats" and name.startswith("write_"):
        return _encoded
    if layer == "formats" and name.startswith("read_"):
        return _decoded
    return _OBSERVERS.get(span_name)


def _layer_functions(module, layer):
    for name, obj in vars(module).items():
        public = not name.startswith("_") or name in _EXTRA.get(layer, ())
        if (public and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not inspect.isgeneratorfunction(obj)):
            yield name, obj


def install(tracer):
    """Wrap every layer function; returns the number of bindings patched."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"sceneflowgen.{layer}")
        for name, fn in _layer_functions(module, layer):
            span_name = f"{layer}.{name}"
            wrappers[id(fn)] = _wrap(tracer, span_name, layer, fn,
                                     _observer(span_name, layer, name))
    patched = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "sceneflowgen" and not mod_name.startswith("sceneflowgen."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                setattr(module, attr, wrapper)
                patched += 1
    return patched


def _wrap(tracer, span_name, layer, fn, observer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(span_name, layer, fn, args, kwargs, observer)
    return wrapper
