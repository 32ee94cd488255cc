"""Synthetic stock-quote publications.

The paper's publishers replay Yahoo! Finance daily closing quotes; each
publisher publishes one unique stock.  Without access to the original
traces we synthesize per-symbol OHLCV daily bars with a seeded
geometric random walk — same attribute schema, same "no well-defined
distribution" property the paper leans on, fully reproducible.

A generated publication carries exactly the paper's attributes::

    [class,'STOCK'],[symbol,'YHOO'],[open,18.37],[high,18.6],
    [low,18.37],[close,18.37],[volume,6200],[date,'5-Sep-96'],
    [openClose%Diff,0.0],[highLow%Diff,0.014],
    [closeEqualsLow,'true'],[closeEqualsHigh,'false']
"""

from __future__ import annotations

import datetime
from functools import lru_cache
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.pubsub.message import Advertisement
from repro.pubsub.predicate import Operator, Predicate
from repro.sim.rng import SeededRng

#: Ticker universe; experiments take the first N as their publishers.
STOCK_SYMBOLS: Tuple[str, ...] = (
    "YHOO", "MSFT", "IBM", "ORCL", "INTC", "CSCO", "AAPL", "DELL",
    "HPQ", "SUNW", "AMZN", "EBAY", "GOOG", "RHAT", "ADBE", "NVDA",
    "AMD", "TXN", "MOT", "NOK", "QCOM", "JNPR", "LU", "GE",
    "T", "VZ", "SBC", "F", "GM", "XOM", "CVX", "BP",
    "WMT", "TGT", "KO", "PEP", "MCD", "DIS", "AIG", "C",
    "JPM", "BAC", "WFC", "GS", "MS", "AXP", "MMM", "BA",
    "CAT", "DD", "EK", "GT", "HD", "HON", "IP", "JNJ",
    "MRK", "PFE", "PG", "UTX", "ALCOA", "S", "K", "CL",
    "CPQ", "GTW", "PALM", "RIMM", "SGI", "NOVL", "BORL", "SYBS",
    "INFA", "TIBX", "BEAS", "VRSN", "AKAM", "EXDS", "INKT", "LNUX",
    "CMGI", "ICGE", "ETYS", "PETS", "WBVN", "KOOP", "FLWS", "PCLN",
    "DRIV", "EGRP", "AMTD", "SCH", "NITE", "MWD", "LEH", "BSC",
    "MER", "PRU", "MET", "ALL",
)

_BASE_DATE = datetime.date(1996, 1, 2)

#: English month abbreviations, so a date reads the same in any locale.
_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)


@lru_cache(maxsize=None)
def _format_date(day_offset: int) -> str:
    """Dates in Yahoo!'s '5-Sep-96' style.

    Memoised: every feed of a run walks the same day offsets, so each
    date is formatted once per process, not once per quote.  The cache
    holds one short string per day offset reached, so it is bounded by
    the longest feed the process has run.
    """
    day = _BASE_DATE + datetime.timedelta(days=day_offset)
    return f"{day.day}-{_MONTHS[day.month - 1]}-{day.year % 100:02d}"


class StockQuoteFeed:
    """An endless iterator of daily OHLCV bars for one symbol.

    Parameters
    ----------
    symbol:
        Ticker name; also seeds the per-symbol random stream.
    rng:
        Parent random stream (a per-symbol child is derived from it).
    initial_price / daily_volatility / base_volume:
        Random-walk parameters; defaults give mid-1990s-looking quotes.
    """

    def __init__(
        self,
        symbol: str,
        rng: SeededRng,
        initial_price: Optional[float] = None,
        daily_volatility: float = 0.02,
        base_volume: float = 8000.0,
    ):
        self.symbol = symbol
        self._rng = rng.child("stock", symbol)
        self._price = (
            initial_price
            if initial_price is not None
            else self._rng.uniform(5.0, 120.0)
        )
        # Bound once: ``__next__`` is every publisher's per-quote cost.
        stream = self._rng.stream
        self._gauss = stream.gauss
        self._lognormvariate = stream.lognormvariate
        self._volatility = daily_volatility
        self._base_volume = base_volume
        self._day = 0

    @property
    def price(self) -> float:
        """Current (last generated) closing price."""
        return self._price

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return self

    def __next__(self) -> Dict[str, Any]:
        gauss = self._gauss
        volatility = self._volatility
        open_price = self._price
        drift = gauss(0.0, volatility)
        close = max(0.25, round(open_price * (1.0 + drift), 2))
        wiggle_high = abs(gauss(0.0, volatility / 2.0))
        wiggle_low = abs(gauss(0.0, volatility / 2.0))
        high = round(max(open_price, close) * (1.0 + wiggle_high), 2)
        low = round(min(open_price, close) * (1.0 - wiggle_low), 2)
        volume = int(self._lognormvariate(0.0, 0.6) * self._base_volume)
        self._price = close
        date = _format_date(self._day)
        self._day += 1
        open_close_diff = round(abs(close - open_price) / open_price, 4)
        high_low_diff = round((high - low) / high, 4) if high > 0 else 0.0
        return {
            "class": "STOCK",
            "symbol": self.symbol,
            "open": open_price,
            "high": high,
            "low": low,
            "close": close,
            "volume": volume,
            "date": date,
            "openClose%Diff": open_close_diff,
            "highLow%Diff": high_low_diff,
            "closeEqualsLow": "true" if close == low else "false",
            "closeEqualsHigh": "true" if close == high else "false",
        }


def stock_advertisement(symbol: str, adv_id: Optional[str] = None,
                        publisher_id: Optional[str] = None) -> Advertisement:
    """The advertisement a stock publisher floods before publishing.

    Advertises the full value space of the quote schema, pinned to the
    publisher's symbol — publications satisfy it by construction.
    """
    predicates = (
        Predicate("class", Operator.EQ, "STOCK"),
        Predicate("symbol", Operator.EQ, symbol),
        Predicate("open", Operator.GE, 0.0),
        Predicate("high", Operator.GE, 0.0),
        Predicate("low", Operator.GE, 0.0),
        Predicate("close", Operator.GE, 0.0),
        Predicate("volume", Operator.GE, 0.0),
        Predicate("date", Operator.PRESENT),
        Predicate("openClose%Diff", Operator.GE, 0.0),
        Predicate("highLow%Diff", Operator.GE, 0.0),
        Predicate("closeEqualsLow", Operator.PRESENT),
        Predicate("closeEqualsHigh", Operator.PRESENT),
    )
    return Advertisement(
        adv_id=adv_id or f"adv-{symbol}",
        publisher_id=publisher_id or f"pub-{symbol}",
        predicates=predicates,
    )
