"""Browser substrate: the Lobo-prototype equivalent of the reproduction."""

from .browser import Browser, LoadedPage
from .compile_cache import CachedTemplate, CompileCaches, TemplateCache
from .history import BrowserHistory, HistoryEntry
from .labeler import LabelingStats, PageLabeler, document_uses_escudo
from .loader import LoaderOptions, load_page
from .page import Page, RegisteredListener, ScriptRun
from .renderer import LayoutBox, Renderer, RenderStats, render_document
from .script_runtime import RuntimeObservations, ScriptRuntime
from .ui_events import UiEventLayer, UiEventResult
from .xhr import XmlHttpRequest

__all__ = [
    "Browser",
    "BrowserHistory",
    "CachedTemplate",
    "CompileCaches",
    "TemplateCache",
    "HistoryEntry",
    "LabelingStats",
    "LayoutBox",
    "LoadedPage",
    "LoaderOptions",
    "Page",
    "PageLabeler",
    "RegisteredListener",
    "RenderStats",
    "Renderer",
    "RuntimeObservations",
    "ScriptRun",
    "ScriptRuntime",
    "UiEventLayer",
    "UiEventResult",
    "XmlHttpRequest",
    "document_uses_escudo",
    "load_page",
    "render_document",
]
