import java.util.concurrent.locks.Lock;
import java.util.concurrent.locks.ReentrantLock;
import javax.annotation.concurrent.ThreadSafe;

// the early return runs the inner finally, then the outer one
@ThreadSafe
class NestedFinally {
  private int a = 0;
  private int b = 0;
  private final Lock outer = new ReentrantLock();
  private final Lock inner = new ReentrantLock();

  public int step(boolean early) {
    outer.lock();
    try {
      inner.lock();
      try {
        if (early) {
          return a;
        }
        b = 1;
      } finally {
        inner.unlock();
      }
      a = 1;
    } finally {
      outer.unlock();
    }
    return 0;
  }
}
